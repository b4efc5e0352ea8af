package traffic

import (
	"math"
	"math/rand"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/eval"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
)

// buildStretchSix builds a small §2 scheme for engine tests.
func buildStretchSix(t testing.TB, n int, seed int64) (*core.StretchSix, *graph.DenseMetric, *names.Permutation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 8, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)
	s6, err := core.NewStretchSix(g, m, perm, rng, core.Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s6, m, perm
}

func TestCompileValidates(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Fatal("nil plane compiled")
	}
	s6, _, _ := buildStretchSix(t, 32, 1)
	pl, err := Compile(s6)
	if err != nil {
		t.Fatal(err)
	}
	if pl.N() != 32 {
		t.Fatalf("plane N = %d, want 32", pl.N())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	s6, _, _ := buildStretchSix(t, 24, 1)
	pl, err := Compile(s6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pl, Config{Packets: 0}); err == nil {
		t.Fatal("zero packets accepted")
	}
	if _, err := Run(pl, Config{Packets: 10, Workload: Spec{Kind: "bogus"}}); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

func TestSplitPartition(t *testing.T) {
	for _, c := range []struct {
		total   int64
		workers int
	}{{100, 4}, {101, 4}, {3, 8}, {1, 1}, {7, 3}} {
		qs := SplitQuota(c.total, c.workers)
		var sum int64
		for i, q := range qs {
			sum += q
			if i > 0 && q > qs[i-1] {
				t.Fatalf("split(%d,%d) = %v not front-loaded", c.total, c.workers, qs)
			}
		}
		if sum != c.total {
			t.Fatalf("split(%d,%d) sums to %d", c.total, c.workers, sum)
		}
	}
}

// TestEngineMatchesSequentialReplay is the determinism contract: a
// concurrent engine run must produce exactly the stats a sequential
// replay of the same per-worker pair streams produces through the
// trace-recording sim.Run path.
func TestEngineMatchesSequentialReplay(t *testing.T) {
	const (
		n       = 72
		seed    = 42
		packets = 6000
		workers = 4
	)
	s6, m, _ := buildStretchSix(t, n, seed)
	pl, err := Compile(s6)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: Zipf, ZipfTheta: 0.9}
	res, err := Run(pl, Config{
		Workers: workers, Packets: packets, Workload: spec, Seed: seed, Oracle: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != packets {
		t.Fatalf("served %d packets, want %d", res.Packets, packets)
	}

	// Sequential replay through sim.Run (the full-trace path).
	wl, err := NewWorkload(spec, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var (
		hops, weight int64
		hopHist      eval.Hist
		hdrHist      eval.Hist
		stretches    []float64
	)
	for w, quota := range SplitQuota(packets, workers) {
		gen := wl.Generator(w)
		for i := int64(0); i < quota; i++ {
			src, dst := gen.Next()
			tr, err := s6.Roundtrip(src, dst)
			if err != nil {
				t.Fatalf("replay worker %d packet %d: %v", w, i, err)
			}
			hops += int64(tr.Hops())
			weight += int64(tr.Weight())
			hopHist.Add(tr.Hops())
			hdrHist.Add(tr.MaxHeaderWords())
			r := m.R(s6.NodeOf(src), s6.NodeOf(dst))
			stretches = append(stretches, float64(tr.Weight())/float64(r))
		}
	}
	if res.Hops != hops || res.Weight != weight {
		t.Fatalf("engine hops/weight %d/%d, replay %d/%d", res.Hops, res.Weight, hops, weight)
	}
	if res.HopHist != hopHist {
		t.Fatalf("hop histograms diverge:\n%s\nvs\n%s", res.HopHist.Format("hops"), hopHist.Format("hops"))
	}
	if res.HdrHist != hdrHist {
		t.Fatalf("header histograms diverge")
	}
	want := eval.QuantilesOf(stretches)
	got := res.Stretch
	for _, pair := range [][2]float64{
		{got.P50, want.P50}, {got.P95, want.P95}, {got.P99, want.P99},
		{got.Max, want.Max}, {got.Mean, want.Mean},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Fatalf("stretch quantiles diverge: engine %+v, replay %+v", got, want)
		}
	}
	if got.Max > 6.0000001 {
		t.Fatalf("stretch-6 bound violated under traffic: max %v", got.Max)
	}
}

// TestEngineStatsIndependentOfScheduling runs the same configuration
// twice and demands identical distributions (only Elapsed may differ).
func TestEngineStatsIndependentOfScheduling(t *testing.T) {
	s6, m, _ := buildStretchSix(t, 48, 9)
	pl, err := Compile(s6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 8, Packets: 4000, Workload: Spec{Kind: Hotspot}, Seed: 9, Oracle: m}
	a, err := Run(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hops != b.Hops || a.Weight != b.Weight || a.HopHist != b.HopHist || a.Stretch != b.Stretch {
		t.Fatal("two identical runs produced different stats")
	}
}

// TestEngineSampling checks the stretch sampling stride records the
// expected subset without touching the full-coverage counters.
func TestEngineSampling(t *testing.T) {
	s6, m, _ := buildStretchSix(t, 32, 3)
	pl, err := Compile(s6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pl, Config{Workers: 3, Packets: 1000, Seed: 3, Oracle: m, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 1000 {
		t.Fatalf("packets %d", res.Packets)
	}
	// Workers serve 334/333/333 packets: ceil each /10 = 34+34+34.
	if res.Sampled != 102 {
		t.Fatalf("sampled %d, want 102", res.Sampled)
	}
	if res.HopHist.N != 1000 {
		t.Fatalf("hop histogram covers %d packets, want all 1000", res.HopHist.N)
	}
}

// TestEngineServesSubstratePlanes drives traffic through the RTZ and Hop
// substrate adapters and sanity-checks their stretch.
func TestEngineServesSubstratePlanes(t *testing.T) {
	const n, seed = 48, 7
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 6, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)

	sub, err := rtz.New(g, m, rng, rtz.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRTZPlane(sub, perm)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := rtz.NewHop(g, m, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := NewHopPlane(hop, perm)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		plane sim.Plane
		bound float64
	}{
		{"rtz", rp, 3.0000001},
		// The hop substrate's roundtrip-via-root bound is looser; just
		// require it finite and positive.
		{"hop", hp, math.Inf(1)},
	} {
		pl, err := Compile(tc.plane)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := Run(pl, Config{Workers: 4, Packets: 3000, Workload: Spec{Kind: RPC}, Seed: seed, Oracle: m})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Packets != 3000 {
			t.Fatalf("%s: served %d", tc.name, res.Packets)
		}
		if res.Stretch.Max > tc.bound {
			t.Fatalf("%s: max stretch %v above bound %v", tc.name, res.Stretch.Max, tc.bound)
		}
		if res.Stretch.P50 < 1 {
			t.Fatalf("%s: p50 stretch %v below 1", tc.name, res.Stretch.P50)
		}
	}
}
