package traffic

import (
	"math/rand"
	"sync"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
)

// TestConcurrentForwardingMatchesSequential certifies the read-only
// forwarding contract every plane implementation promises: many
// goroutines hammer ONE shared built scheme and every concurrent trace
// must be node-identical to the sequential sim.Run trace for the same
// (src, dst) pair. Run under -race (as CI does) this proves Forward,
// NewHeader and BeginReturn never mutate shared table state.
func TestConcurrentForwardingMatchesSequential(t *testing.T) {
	const (
		n          = 48
		seed       = 17
		goroutines = 8
	)
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 6, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)

	s6, err := core.NewStretchSix(g, m, perm, rng, core.Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExStretch(g, m, perm, rng, core.ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := core.NewPolynomialStretch(g, m, perm, core.PolyConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rtz.New(g, m, rng, rtz.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rzp, err := NewRTZPlane(sub, perm)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := rtz.NewHop(g, m, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	hpp, err := NewHopPlane(hop, perm)
	if err != nil {
		t.Fatal(err)
	}

	// A fixed shared pair set, covering every source.
	var pairs [][2]int32
	for s := int32(0); s < n; s++ {
		for _, d := range []int32{(s + 1) % n, (s + n/2) % n, (s*7 + 3) % n} {
			if s != d {
				pairs = append(pairs, [2]int32{s, d})
			}
		}
	}

	for _, tc := range []struct {
		name  string
		plane sim.Plane
	}{
		{"stretch6", s6},
		{"exstretch-k2", ex},
		{"polystretch-k2", poly},
		{"rtz", rzp},
		{"hop", hpp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]*sim.RoundtripTrace, len(pairs))
			for i, p := range pairs {
				tr, err := sim.Roundtrip(tc.plane, p[0], p[1], 0)
				if err != nil {
					t.Fatalf("sequential pair %v: %v", p, err)
				}
				want[i] = tr
			}
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			diffs := make([]string, goroutines)
			for gi := 0; gi < goroutines; gi++ {
				wg.Add(1)
				go func(gi int) {
					defer wg.Done()
					// Each goroutine walks the pair list from its own
					// offset so distinct pairs are in flight at once.
					for k := range pairs {
						i := (k + gi*len(pairs)/goroutines) % len(pairs)
						p := pairs[i]
						tr, err := sim.Roundtrip(tc.plane, p[0], p[1], 0)
						if err != nil {
							errs[gi] = err
							return
						}
						if !samePath(tr.Out.Path, want[i].Out.Path) || !samePath(tr.Back.Path, want[i].Back.Path) {
							diffs[gi] = tc.name
							return
						}
						if tr.Weight() != want[i].Weight() || tr.MaxHeaderWords() != want[i].MaxHeaderWords() {
							diffs[gi] = tc.name
							return
						}
					}
				}(gi)
			}
			wg.Wait()
			for gi := range errs {
				if errs[gi] != nil {
					t.Fatalf("goroutine %d: %v", gi, errs[gi])
				}
				if diffs[gi] != "" {
					t.Fatalf("goroutine %d: concurrent trace diverged from sequential", gi)
				}
			}
		})
	}
}

func samePath(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
