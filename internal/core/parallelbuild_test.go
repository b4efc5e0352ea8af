package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/sim"
)

// buildWorkerCounts are the worker counts every parallel build stage
// must agree across.
var buildWorkerCounts = []int{1, 2, 4}

// requireSameState fails unless two planes decompose to identical
// shared parameters and identical LocalStates, node for node.
func requireSameState(t *testing.T, what string, a, b sim.Plane) {
	t.Helper()
	sa, la, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, lb, err := Decompose(b)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Kind != sb.Kind || sa.K != sb.K || sa.Levels != sb.Levels ||
		sa.ViaSource != sb.ViaSource || sa.DirectReturn != sb.DirectReturn ||
		!reflect.DeepEqual(sa.Names, sb.Names) {
		t.Fatalf("%s: shared parameters differ", what)
	}
	if len(la) != len(lb) {
		t.Fatalf("%s: %d vs %d local states", what, len(la), len(lb))
	}
	for v := range la {
		if !reflect.DeepEqual(la[v], lb[v]) {
			t.Fatalf("%s: node %d local state differs", what, v)
		}
	}
}

// determinismInput is one build input of the determinism tests.
type determinismInput struct {
	name string
	g    *graph.Graph
	perm *names.Permutation
}

// determinismGraphs are the build inputs: a random graph with spread
// weights, and a tie-heavy one (all weights 1) where the Init orders'
// ID tie-break decides most positions.
func determinismGraphs() []determinismInput {
	var out []determinismInput
	for _, c := range []struct {
		name string
		n    int
		maxW graph.Dist
	}{{"random", 64, 6}, {"ties", 49, 1}} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		g := graph.RandomSC(c.n, 3*c.n, c.maxW, rng)
		out = append(out, determinismInput{c.name, g, names.Random(g.N(), rng)})
	}
	return out
}

// TestParallelBuildDeterminism: per-node construction has no randomness
// and every parallel stage writes disjoint state, so any worker count
// must produce bit-identical LocalStates — for the three TINN schemes,
// for the maintained StretchSix build (against the fresh one), and for
// a Deployment reassembled from them.
func TestParallelBuildDeterminism(t *testing.T) {
	for _, in := range determinismGraphs() {
		t.Run(in.name, func(t *testing.T) {
			g, perm := in.g, in.perm
			m := graph.AllPairs(g)
			buildS6 := func(workers int) *StretchSix {
				s, err := NewStretchSix(g, m, perm, rand.New(rand.NewSource(2)), Stretch6Config{BuildWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			buildS6Maintained := func(workers int) *StretchSix {
				mt, err := NewStretchSixMaintained(g, m, perm, 2, Stretch6Config{BuildWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return mt.Plane()
			}
			buildEx := func(workers int) *ExStretch {
				s, err := NewExStretch(g, m, perm, rand.New(rand.NewSource(3)), ExStretchConfig{K: 2, BuildWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			buildPoly := func(workers int) *PolynomialStretch {
				s, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: 2, BuildWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			ref := buildS6(1)
			refEx, refPoly := buildEx(1), buildPoly(1)
			for _, w := range buildWorkerCounts {
				requireSameState(t, "stretch6", ref, buildS6(w))
				requireSameState(t, "stretch6 maintained", ref, buildS6Maintained(w))
				requireSameState(t, "exstretch", refEx, buildEx(w))
				requireSameState(t, "polystretch", refPoly, buildPoly(w))
			}
			dep, err := Deploy(ref)
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "stretch6 deployment", ref, dep)
			if a, b := ref.MaxTableWords(), dep.MaxTableWords(); a != b {
				t.Fatalf("deployment table words %d, scheme %d", b, a)
			}
		})
	}
}
