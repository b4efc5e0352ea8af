package main

import (
	"math"
	"strings"
	"testing"

	"rtroute"
	"rtroute/internal/cluster"
	"rtroute/internal/wire"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 2.75, 7.625},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianQuantileMean(t *testing.T) {
	xs := []float64{7, 1, 3, 5}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if xs[0] != 7 {
		t.Error("median reordered its input")
	}
	if got := quantile(sorted(xs), 0.75); got != 5.5 {
		t.Errorf("p75 = %v, want 5.5", got)
	}
	if got := quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("single-sample quantile = %v, want 42", got)
	}
	if got := mean(xs); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty median/mean should be 0")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if v, ok := tailPercentile(xs, 99, 10); !ok || v != 990 {
		t.Fatalf("1000 samples: p99=%v ok=%v, want 990 with 10 beyond", v, ok)
	}
	// 500 samples (501..1000) leave only 5 beyond p99 but 25 beyond p95.
	if _, ok := tailPercentile(xs[:500], 99, 10); ok {
		t.Fatal("500 samples: p99 accepted with 5 samples beyond it")
	}
	if v, ok := tailPercentile(xs[:500], 95, 10); !ok || v != 975 {
		t.Fatalf("500 samples: p95=%v ok=%v, want 975", v, ok)
	}
}

// tinyShape is fabric-zipf's shape at a size that builds in well under
// a second.
func tinyShape() shape {
	sh := workloadByName("fabric-zipf").shape
	sh.n, sh.extra, sh.chunk = 48, 4*48, 2000
	return sh
}

func newRun(t *testing.T, name string) *run {
	t.Helper()
	return &run{workload: workloadByName(name), seed: 3, seconds: 1, res: result{Metrics: map[string]metric{}}}
}

// deterministic measures the seed-determined metrics once.
func deterministic(t *testing.T, seed int64) (bytesMax, stretch, xframes, dirty float64) {
	t.Helper()
	sh := tinyShape()
	in, err := setup(sh, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(t, "fabric-zipf")
	bytesMax, stretch, err = staticMetrics(r, in.plane, in.sys.Metric, sh, subSeed(seed, -1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.sys.ServeCluster(in.dep, clusterConfig(sh, sh.chunk, subSeed(seed, 100)))
	if err != nil {
		t.Fatal(err)
	}
	csh := workloadByName("churn-fire").shape
	csh.n, csh.extra = 48, 16*48
	g, _, err := newGraph(csh, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := layerProbe(r, g, seed); err != nil {
		t.Fatal(err)
	}
	if r.gateErr != nil {
		t.Fatal(r.gateErr)
	}
	return bytesMax, stretch, res.CrossingsPerRT(), r.res.Metrics["churn.dirty_frac"].Value
}

func TestSameSeedSameDeterministicMetrics(t *testing.T) {
	b1, s1, x1, d1 := deterministic(t, 5)
	b2, s2, x2, d2 := deterministic(t, 5)
	if b1 != b2 || s1 != s2 || x1 != x2 || d1 != d2 {
		t.Fatalf("same seed, different metrics: table_bytes_max %v/%v stretch_mean %v/%v xframes_per_rt %v/%v dirty_frac %v/%v",
			b1, b2, s1, s2, x1, x2, d1, d2)
	}
	if b1 <= 0 || s1 < 1 || x1 <= 0 || d1 <= 0 {
		t.Fatalf("implausible metrics: %v %v %v %v", b1, s1, x1, d1)
	}
}

func TestGateAccountingTrips(t *testing.T) {
	if err := gateAccounting(accounting{issued: 10, served: 10}); err != nil {
		t.Fatalf("clean ledger tripped: %v", err)
	}
	forged := []accounting{
		{issued: 10, served: 9},                // one hung
		{issued: 10, served: 9, drops: 1},      // a drop
		{issued: 10, served: 9, misroutes: 1},  // a misroute
		{issued: 10, served: 9, errors: 1},     // an error
		{issued: 10, served: 10, misroutes: 1}, // more accounted than issued
	}
	for _, a := range forged {
		if gateAccounting(a) == nil {
			t.Errorf("forged ledger %+v passed", a)
		}
	}
}

func TestGateStretchTrips(t *testing.T) {
	if gateStretch(1, 2, 6) != nil || gateStretch(1, 2, 1) != nil {
		t.Fatal("stretch at the bounds tripped")
	}
	if gateStretch(1, 2, 6.0001) == nil || gateStretch(1, 2, 0.9) == nil {
		t.Fatal("stretch outside [1, 6] passed")
	}
}

// shrunkOracle reports every roundtrip distance a tenth of the truth,
// forging a stretch of ~10x.
type shrunkOracle struct{ rtroute.Oracle }

func (o shrunkOracle) R(u, v rtroute.NodeID) rtroute.Dist { return o.Oracle.R(u, v)/10 + 1 }

func TestStretchGateTripsThroughMeasurement(t *testing.T) {
	sh := tinyShape()
	in, err := setup(sh, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(t, "fabric-zipf")
	if _, _, err := staticMetrics(r, in.plane, in.sys.Metric, sh, 1); err != nil || r.gateErr != nil {
		t.Fatalf("honest oracle: err=%v gate=%v", err, r.gateErr)
	}
	if _, _, err := staticMetrics(r, in.plane, shrunkOracle{in.sys.Metric}, sh, 1); err != nil {
		t.Fatal(err)
	}
	if r.gateErr == nil || !strings.Contains(r.gateErr.Error(), "stretch") {
		t.Fatalf("forged oracle did not trip the stretch gate: %v", r.gateErr)
	}
}

func TestLegTotalsGateTripsThroughReplay(t *testing.T) {
	sh := tinyShape()
	in, err := setup(sh, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(t, "tcp-rpc")
	// Serve a real call over loopback TCP, then forge its totals.
	tsh := workloadByName("tcp-rpc").shape
	tsh.n = sh.n
	tc, err := startTCP(in.dep, tsh)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tc.close(); err != nil {
			t.Error(err)
		}
	}()
	cl, err := cluster.DialClient(tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	out, back, err := cl.Roundtrip(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	honest := []tcpCall{{src: 1, dst: 7, out: out, back: back}}
	if err := replayChecks(r, in.dep, honest); err != nil || r.gateErr != nil {
		t.Fatalf("served totals did not replay: err=%v gate=%v", err, r.gateErr)
	}
	forged := []tcpCall{{src: 1, dst: 7, out: wire.LegTotals{Hops: out.Hops + 1, Weight: out.Weight}, back: back}}
	if err := replayChecks(r, in.dep, forged); err != nil {
		t.Fatal(err)
	}
	if r.gateErr == nil {
		t.Fatal("forged leg totals passed the replay gate")
	}
}

func TestGateCertifiedTrips(t *testing.T) {
	if gateCertified(true, true) != nil {
		t.Fatal("certified run tripped")
	}
	if gateCertified(true, false) == nil || gateCertified(false, true) == nil {
		t.Fatal("uncertified run passed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	out := strings.Join([]string{
		`{"host":{"workload":"fabric-zipf"}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"rt_per_s":{"value":100,"unit":"rt/s"},"setup_s":{"value":1.0,"unit":"s"}}}`,
		`noise line`,
		`{"host":{"workload":"fabric-zipf"}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"rt_per_s":{"value":102,"unit":"rt/s"},"setup_s":{"value":1.1,"unit":"s"}}}`,
	}, "\n")
	set, err := readResults(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := set["fabric-zipf"]["rt_per_s"]; len(got) != 2 || got[1] != 102 {
		t.Fatalf("parsed %v", got)
	}
	bound := 0.1
	sm := specMetric{Name: "rt_per_s", Better: "higher", Bound: &bound}
	if v := verdict([]float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, sm); v != "REGRESSED" {
		t.Errorf("20%% slower: verdict %q", v)
	}
	if v := verdict([]float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, sm); v != "same" {
		t.Errorf("unchanged: verdict %q", v)
	}
	if v := verdict([]float64{100, 101, 99, 100}, []float64{130, 131, 129, 130}, sm); v != "better" {
		t.Errorf("30%% faster: verdict %q", v)
	}
	if v := verdict([]float64{50, 150, 100, 100}, []float64{100, 100, 100, 101}, sm); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("spread wider than bound: verdict %q", v)
	}
	if _, err := readResults(strings.NewReader(`{"correct":true,"metrics":{}}`)); err == nil {
		t.Error("a result line with no host block was accepted")
	}
}
