package rtz

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rtroute/internal/graph"
	"rtroute/internal/tree"
)

// tableState is a table's routing content in comparable form.
type tableState struct {
	Self       graph.NodeID
	InPorts    []graph.PortID
	TreeStates []tree.State
	Direct     map[graph.NodeID]graph.PortID
}

func tableStates(s *Scheme) []tableState {
	out := make([]tableState, len(s.Tables))
	for v, t := range s.Tables {
		direct := make(map[graph.NodeID]graph.PortID, t.DirectCount())
		t.DirectEntries(func(dst graph.NodeID, p graph.PortID) { direct[dst] = p })
		out[v] = tableState{Self: t.Self, InPorts: t.InPorts, TreeStates: t.TreeStates, Direct: direct}
	}
	return out
}

// sameScheme reports how two substrates differ, or "" when their
// centers, labels and every table entry agree.
func sameScheme(a, b *Scheme) string {
	if !reflect.DeepEqual(a.Centers, b.Centers) {
		return "centers"
	}
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		return "labels"
	}
	ta, tb := tableStates(a), tableStates(b)
	for v := range ta {
		if !reflect.DeepEqual(ta[v], tb[v]) {
			return fmt.Sprintf("table of node %d", v)
		}
	}
	return ""
}

// TestParallelBuildDeterminism: the substrate's parallel stages (center
// trees, per-node labels, per-destination clusters with one scratch per
// worker) must build the same scheme at every worker count, over the
// dense oracle and over the lazy one (whose cluster plan runs a reverse
// Dijkstra per destination), and the maintained build must retain the
// same intermediates.
func TestParallelBuildDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomSC(90, 300, 5, rng)
	oracles := []struct {
		name string
		m    graph.DistanceOracle
	}{{"dense", graph.AllPairs(g)}, {"lazy", graph.NewLazyOracle(g, 0)}}
	for _, o := range oracles {
		t.Run(o.name, func(t *testing.T) {
			build := func(workers int) *Scheme {
				s, err := New(g, o.m, rand.New(rand.NewSource(4)), Config{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			maintained := func(workers int) *Maintainer {
				mt, err := NewMaintained(g, o.m, rand.New(rand.NewSource(4)), Config{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				return mt
			}
			ref, refM := build(1), maintained(1)
			if d := sameScheme(ref, refM.Scheme()); d != "" {
				t.Fatalf("maintained build differs from New: %s", d)
			}
			for _, w := range []int{2, 4} {
				if d := sameScheme(ref, build(w)); d != "" {
					t.Fatalf("workers=%d: %s differs", w, d)
				}
				mt := maintained(w)
				if d := sameScheme(ref, mt.Scheme()); d != "" {
					t.Fatalf("workers=%d maintained: %s differs", w, d)
				}
				if !reflect.DeepEqual(refM.members, mt.members) || !reflect.DeepEqual(refM.centerRadius, mt.centerRadius) {
					t.Fatalf("workers=%d: maintained cluster intermediates differ", w)
				}
			}
		})
	}
}
