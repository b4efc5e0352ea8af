package rtmetric

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rtroute/internal/graph"
)

func newSpace(t *testing.T, seed int64, n, extra int, maxW graph.Dist) *Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, extra, maxW, rng)
	return New(g, graph.AllPairs(g), nil)
}

func TestInitIsTotalOrderStartingAtV(t *testing.T) {
	s := newSpace(t, 1, 40, 120, 10)
	for v := 0; v < s.G.N(); v++ {
		ord := s.Init(graph.NodeID(v))
		if len(ord) != s.G.N() {
			t.Fatalf("Init_%d has %d entries, want %d", v, len(ord), s.G.N())
		}
		if ord[0] != graph.NodeID(v) {
			t.Fatalf("Init_%d starts at %d, want %d (r(v,v)=0 is unique minimum)", v, ord[0], v)
		}
		seen := make(map[graph.NodeID]bool)
		for _, u := range ord {
			if seen[u] {
				t.Fatalf("Init_%d repeats node %d", v, u)
			}
			seen[u] = true
		}
		// Strictly increasing under Less.
		for i := 0; i+1 < len(ord); i++ {
			if !s.Less(graph.NodeID(v), ord[i], ord[i+1]) {
				t.Fatalf("Init_%d not sorted at position %d (%d vs %d)", v, i, ord[i], ord[i+1])
			}
		}
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	s := newSpace(t, 2, 25, 75, 7)
	n := s.G.N()
	for v := 0; v < n; v++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				la := s.Less(graph.NodeID(v), graph.NodeID(a), graph.NodeID(b))
				lb := s.Less(graph.NodeID(v), graph.NodeID(b), graph.NodeID(a))
				if a == b && (la || lb) {
					t.Fatalf("Less(%d; %d,%d): irreflexivity violated", v, a, b)
				}
				if a != b && la == lb {
					t.Fatalf("Less(%d; %d,%d): totality/antisymmetry violated (both %v)", v, a, b, la)
				}
			}
		}
	}
}

func TestLessTransitivity(t *testing.T) {
	s := newSpace(t, 3, 20, 60, 9)
	err := quick.Check(func(a, b, c uint8) bool {
		n := s.G.N()
		v := graph.NodeID(0)
		x, y, z := graph.NodeID(int(a)%n), graph.NodeID(int(b)%n), graph.NodeID(int(c)%n)
		if s.Less(v, x, y) && s.Less(v, y, z) {
			return s.Less(v, x, z)
		}
		return true
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankConsistentWithInit(t *testing.T) {
	s := newSpace(t, 4, 30, 90, 5)
	for v := 0; v < s.G.N(); v++ {
		ord := s.Init(graph.NodeID(v))
		for i, u := range ord {
			if got := s.Rank(graph.NodeID(v), u); got != i {
				t.Fatalf("Rank(%d,%d) = %d, want %d", v, u, got, i)
			}
		}
	}
}

func TestNeighborhoodMonotone(t *testing.T) {
	s := newSpace(t, 5, 36, 100, 4)
	v := graph.NodeID(7)
	n6 := s.Neighborhood(v, 6)
	n12 := s.Neighborhood(v, 12)
	if len(n6) != 6 || len(n12) != 12 {
		t.Fatalf("sizes: %d, %d; want 6, 12", len(n6), len(n12))
	}
	for i := range n6 {
		if n6[i] != n12[i] {
			t.Fatal("smaller neighborhood is not a prefix of the larger one")
		}
	}
}

func TestNeighborhoodRoundtripDominance(t *testing.T) {
	// Every node inside N(v) must be roundtrip-closer-or-equal to v than
	// every node outside — the fact the stretch-6 analysis leans on
	// (r(s,w) <= r(s,t) when w ∈ N(s), t ∉ N(s)).
	s := newSpace(t, 6, 32, 96, 8)
	for v := 0; v < s.G.N(); v++ {
		size := 6
		nbhd := s.Neighborhood(graph.NodeID(v), size)
		inSet := make(map[graph.NodeID]bool, size)
		var maxIn graph.Dist
		for _, u := range nbhd {
			inSet[u] = true
			if r := s.M.R(graph.NodeID(v), u); r > maxIn {
				maxIn = r
			}
		}
		for u := 0; u < s.G.N(); u++ {
			if !inSet[graph.NodeID(u)] {
				if r := s.M.R(graph.NodeID(v), graph.NodeID(u)); r < maxIn {
					t.Fatalf("node %d outside N(%d) has r=%d < max inside %d", u, v, r, maxIn)
				}
			}
		}
	}
}

func TestContains(t *testing.T) {
	s := newSpace(t, 7, 20, 60, 3)
	v := graph.NodeID(3)
	nbhd := s.Neighborhood(v, 5)
	for _, u := range nbhd {
		if !s.Contains(v, 5, u) {
			t.Fatalf("Contains(%d, 5, %d) = false for member", v, u)
		}
	}
	count := 0
	for u := 0; u < s.G.N(); u++ {
		if s.Contains(v, 5, graph.NodeID(u)) {
			count++
		}
	}
	if count != 5 {
		t.Fatalf("Contains admits %d nodes, want 5", count)
	}
}

func TestBall(t *testing.T) {
	s := newSpace(t, 8, 24, 72, 6)
	for v := 0; v < s.G.N(); v += 5 {
		for _, m := range []graph.Dist{0, 3, 10, 1 << 40} {
			ball := s.Ball(graph.NodeID(v), m)
			inBall := make(map[graph.NodeID]bool)
			for _, u := range ball {
				inBall[u] = true
				if s.M.R(graph.NodeID(v), u) > m {
					t.Fatalf("ball(%d,%d) contains %d with r=%d", v, m, u, s.M.R(graph.NodeID(v), u))
				}
			}
			for u := 0; u < s.G.N(); u++ {
				if !inBall[graph.NodeID(u)] && s.M.R(graph.NodeID(v), graph.NodeID(u)) <= m {
					t.Fatalf("ball(%d,%d) misses %d", v, m, u)
				}
			}
		}
	}
}

func TestBallContainsSelf(t *testing.T) {
	s := newSpace(t, 9, 10, 30, 2)
	ball := s.Ball(2, 0)
	if len(ball) != 1 || ball[0] != 2 {
		t.Fatalf("Ball(v, 0) = %v, want [v]", ball)
	}
}

func TestTieBreakByID(t *testing.T) {
	// Symmetric 4-cycle (bidirected): many roundtrip ties; the order must
	// fall back to IDs deterministically.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%4), 1)
		g.MustAddEdge(graph.NodeID((i+1)%4), graph.NodeID(i), 1)
	}
	m := graph.AllPairs(g)
	s := New(g, m, nil)
	ord := s.Init(0)
	// r(0,1) = r(0,3) = 2; d(1,0) = d(3,0) = 1; tie broken by ID: 1 < 3.
	if !(ord[0] == 0 && ord[1] == 1) {
		t.Fatalf("Init_0 = %v; want 0 then 1 (ID tie-break)", ord)
	}

	// With reversed IDs, 3 must now precede 1.
	ids := []int32{0, 3, 2, 1}
	s2 := New(g, m, ids)
	ord2 := s2.Init(0)
	if !(ord2[0] == 0 && ord2[1] == 3) {
		t.Fatalf("Init_0 with reversed ids = %v; want 0 then 3", ord2)
	}
}

func TestNeighborhoodSizes(t *testing.T) {
	tests := []struct {
		n, k int
		want []int
	}{
		{16, 2, []int{1, 4, 16}},
		{16, 4, []int{1, 2, 4, 8, 16}},
		{100, 2, []int{1, 10, 100}},
		{27, 3, []int{1, 3, 9, 27}},
		{30, 3, []int{1, 4, 10, 30}}, // ceilings for non-perfect powers
	}
	for _, tc := range tests {
		got := NeighborhoodSizes(tc.n, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("NeighborhoodSizes(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("NeighborhoodSizes(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
			}
		}
	}
}

func TestNeighborhoodSizesMonotone(t *testing.T) {
	err := quick.Check(func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%500 + 2
		k := int(kRaw)%6 + 1
		sizes := NeighborhoodSizes(n, k)
		for i := 0; i+1 < len(sizes); i++ {
			if sizes[i] > sizes[i+1] {
				return false
			}
		}
		return sizes[0] == 1 && sizes[k] == n
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// requirePrefixesMatchInit checks Neighborhood(v, m) == Init(v)[:m] for
// every v and m in {1, ceil(sqrt n), n}. fresh supplies a Space whose
// cache starts empty, so each prefix comes from the selection kernel
// rather than from slicing a cached full order.
func requirePrefixesMatchInit(t *testing.T, fresh func() *Space, full *Space) {
	t.Helper()
	n := full.G.N()
	for _, m := range []int{1, NeighborhoodSizes(n, 2)[1], n} {
		s := fresh()
		s.Precompute(m, 0)
		for v := 0; v < n; v++ {
			got := s.Neighborhood(graph.NodeID(v), m)
			want := full.Init(graph.NodeID(v))[:m]
			if !slices.Equal(got, want) {
				t.Fatalf("m=%d: Neighborhood(%d) = %v, Init prefix %v", m, v, got, want)
			}
		}
	}
}

// TestNeighborhoodEqualsInitPrefix: the prefix kernel selects and sorts
// only m entries under the same comparator as the full sort, so every
// prefix is the head of Init_v — on a graph with spread weights, and on
// a tie-heavy one (all weights 1, random IDs) where the ID tie-break
// decides most positions.
func TestNeighborhoodEqualsInitPrefix(t *testing.T) {
	for _, c := range []struct {
		name string
		maxW graph.Dist
	}{{"spread", 9}, {"ties", 1}} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := graph.RandomSC(70, 200, c.maxW, rng)
			m := graph.AllPairs(g)
			ids := make([]int32, g.N())
			for i, p := range rng.Perm(g.N()) {
				ids[i] = int32(p)
			}
			requirePrefixesMatchInit(t, func() *Space { return New(g, m, ids) }, New(g, m, ids))
		})
	}
}

// TestNeighborhoodAfterInvalidate: after a mutation, InvalidateOrders
// drops a cached prefix whatever its depth, and the refilled prefix
// matches a from-scratch Space over the mutated graph.
func TestNeighborhoodAfterInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.RandomSC(60, 180, 1, rng)
	o := graph.NewLazyOracle(g, 0)
	s := New(g, o, nil)
	n := g.N()
	size := NeighborhoodSizes(n, 2)[1]
	s.Precompute(size, 0)
	s.Init(3) // one full order and rank array too

	u := graph.NodeID(5)
	e := g.Out(u)[0]
	if err := g.SetEdgeWeight(u, e.To, 40); err != nil {
		t.Fatal(err)
	}
	all := make([]graph.NodeID, n)
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	s.InvalidateOrders(all)
	full := New(g, graph.AllPairs(g), nil)
	for v := 0; v < n; v++ {
		got := s.Neighborhood(graph.NodeID(v), size)
		if want := full.Init(graph.NodeID(v))[:size]; !slices.Equal(got, want) {
			t.Fatalf("Neighborhood(%d) after invalidation = %v, want %v", v, got, want)
		}
		if r := s.Rank(graph.NodeID(v), graph.NodeID(v)); r != 0 {
			t.Fatalf("Rank(%d,%d) = %d after invalidation, want 0", v, v, r)
		}
	}
	requirePrefixesMatchInit(t, func() *Space { return New(g, o, nil) }, full)
}
