package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// refDijkstra is an independent O(n^2) reference implementation used to
// certify the specialized 4-ary-heap core.
func refDijkstra(g *Graph, root NodeID, reverse bool, inSet []bool) ([]Dist, []NodeID) {
	n := g.N()
	dist := make([]Dist, n)
	parent := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[root] = 0
	for {
		u := NodeID(-1)
		best := Inf
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				best = dist[v]
				u = NodeID(v)
			}
		}
		if u < 0 {
			return dist, parent
		}
		done[u] = true
		if reverse {
			for _, e := range g.In(u) {
				if inSet != nil && !inSet[e.From] {
					continue
				}
				if nd := dist[u] + e.Weight; nd < dist[e.From] {
					dist[e.From] = nd
					parent[e.From] = u
				}
			}
		} else {
			for _, e := range g.Out(u) {
				if inSet != nil && !inSet[e.To] {
					continue
				}
				if nd := dist[u] + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					parent[e.To] = u
				}
			}
		}
	}
}

func checkDistances(t *testing.T, got SSSP, wantDist []Dist, label string) {
	t.Helper()
	for v := range wantDist {
		if got.Dist[v] != wantDist[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got.Dist[v], wantDist[v])
		}
	}
}

// checkParents verifies that every reachable non-root node's parent edge
// lies on a shortest path (the exact parent choice is tie-break
// dependent; determinism is asserted separately).
func checkParents(t *testing.T, g *Graph, root NodeID, reverse bool, res SSSP, label string) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if NodeID(v) == root || res.Dist[v] >= Inf {
			if NodeID(v) != root && res.Parent[v] != -1 {
				t.Fatalf("%s: unreachable %d has parent %d", label, v, res.Parent[v])
			}
			continue
		}
		p := res.Parent[v]
		if p < 0 {
			t.Fatalf("%s: reachable %d has no parent", label, v)
		}
		var w Dist = -1
		if reverse {
			for _, e := range g.Out(NodeID(v)) {
				if e.To == p {
					w = e.Weight
				}
			}
		} else {
			for _, e := range g.Out(p) {
				if e.To == NodeID(v) {
					w = e.Weight
				}
			}
		}
		if w < 0 {
			t.Fatalf("%s: parent edge (%d,%d) does not exist", label, p, v)
		}
		if res.Dist[p]+w != res.Dist[v] {
			t.Fatalf("%s: parent edge (%d,%d) not on a shortest path", label, p, v)
		}
	}
}

func TestSSSPScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSSSPScratch(0)
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(56)
		g := RandomSC(n, 3*n, 9, rng)
		root := NodeID(rng.Intn(n))
		for _, reverse := range []bool{false, true} {
			wantDist, _ := refDijkstra(g, root, reverse, nil)
			var got SSSP
			if reverse {
				got = s.DijkstraRev(g, root)
			} else {
				got = s.Dijkstra(g, root)
			}
			checkDistances(t, got, wantDist, "full")
			checkParents(t, g, root, reverse, got, "full")
		}
		// Restricted run over a random induced subset containing root.
		inSet := make([]bool, n)
		for v := range inSet {
			inSet[v] = rng.Intn(3) > 0
		}
		inSet[root] = true
		wantDist, _ := refDijkstra(g, root, false, inSet)
		got := s.DijkstraRestricted(g, root, inSet)
		checkDistances(t, got, wantDist, "restricted")
		wantDist, _ = refDijkstra(g, root, true, inSet)
		got = s.DijkstraRevRestricted(g, root, inSet)
		checkDistances(t, got, wantDist, "restricted-rev")
	}
}

// TestSSSPScratchMatchesPackageDijkstra locks scratch reuse to the
// package entry points: same graph, same roots, byte-identical rows and
// parents (both paths share one core, so this is a reuse/epoch test).
func TestSSSPScratchMatchesPackageDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomSC(64, 256, 8, rng)
	s := NewSSSPScratch(g.N())
	for root := 0; root < g.N(); root += 7 {
		want := Dijkstra(g, NodeID(root))
		got := s.Dijkstra(g, NodeID(root))
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] {
				t.Fatalf("root %d node %d: scratch (%d,%d) != fresh (%d,%d)",
					root, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
			}
		}
	}
}

// TestDijkstraRevWithinMatchesFullRun: a limited reverse run agrees with
// the full one on every node closer to the sink than the limit — distance
// and next hop, ties included (unit weights) — and reports Inf / -1 for
// the rest; the scratch's next full run is unaffected by the nodes a
// limit left in the heap.
func TestDijkstraRevWithinMatchesFullRun(t *testing.T) {
	for _, maxW := range []Dist{1, 9} {
		rng := rand.New(rand.NewSource(17))
		g := RandomSC(80, 240, maxW, rng)
		s := NewSSSPScratch(g.N())
		for sink := 0; sink < g.N(); sink += 3 {
			want := DijkstraRev(g, NodeID(sink))
			for _, limit := range []Dist{0, 1, 2, 5, 12, Inf} {
				got := s.DijkstraRevWithin(g, NodeID(sink), limit)
				for v := range want.Dist {
					wd, wp := want.Dist[v], want.Parent[v]
					if wd >= limit {
						wd, wp = Inf, -1
					}
					if got.Dist[v] != wd || got.Parent[v] != wp {
						t.Fatalf("maxW=%d sink %d limit %d node %d: (%d,%d), want (%d,%d)",
							maxW, sink, limit, v, got.Dist[v], got.Parent[v], wd, wp)
					}
				}
			}
			if full := s.DijkstraRev(g, NodeID(sink)); !slices.Equal(full.Dist, want.Dist) || !slices.Equal(full.Parent, want.Parent) {
				t.Fatalf("sink %d: full run after a limited one differs", sink)
			}
		}
	}
}

// TestSSSPScratchReuseAcrossGraphs exercises the epoch-stamped reset: a
// scratch hopping between graphs of different sizes must never leak
// state from a previous run.
func TestSSSPScratchReuseAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewSSSPScratch(0)
	sizes := []int{40, 8, 64, 8, 40, 16}
	for trial, n := range sizes {
		g := RandomSC(n, 3*n, 5, rng)
		root := NodeID(trial % n)
		wantDist, _ := refDijkstra(g, root, false, nil)
		got := s.Dijkstra(g, root)
		if len(got.Dist) != n {
			t.Fatalf("trial %d: row length %d, want %d", trial, len(got.Dist), n)
		}
		checkDistances(t, got, wantDist, "reuse")
	}
}

func TestDijkstraScratchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(17))
	g := RandomSC(128, 512, 8, rng)
	g.Seal()
	s := NewSSSPScratch(g.N())
	s.Dijkstra(g, 0) // warm
	var sink Dist
	allocs := testing.AllocsPerRun(50, func() {
		res := s.Dijkstra(g, 3)
		sink += res.Dist[7]
		res = s.DijkstraRev(g, 5)
		sink += res.Dist[2]
	})
	if allocs != 0 {
		t.Fatalf("scratch Dijkstra allocates %.1f times per pair of runs, want 0 (sink %d)", allocs, sink)
	}
}

// TestSSSPScratchEpochWraparound forces the uint32 epoch to wrap and
// checks that stamps are cleared rather than misread.
func TestSSSPScratchEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := RandomSC(12, 36, 4, rng)
	s := NewSSSPScratch(g.N())
	want := s.Dijkstra(g, 1)
	wantCopy := append([]Dist(nil), want.Dist...)
	s.epoch = ^uint32(0) - 1 // two runs from wrapping
	for i := 0; i < 4; i++ {
		got := s.Dijkstra(g, 1)
		for v := range wantCopy {
			if got.Dist[v] != wantCopy[v] {
				t.Fatalf("run %d after wrap: dist[%d] = %d, want %d", i, v, got.Dist[v], wantCopy[v])
			}
		}
	}
}
