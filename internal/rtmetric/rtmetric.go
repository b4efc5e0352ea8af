// Package rtmetric implements the roundtrip-metric machinery of §1.1 and
// §2 of the paper: the total orders Init_v induced by the roundtrip
// distance r(u,v) = d(u,v) + d(v,u), the neighborhood balls N_i(v) (the
// first n^(i/k) nodes of Init_v), and the radius balls Nhat_m(v) used by
// the sparse-cover construction of §4.
package rtmetric

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rtroute/internal/graph"
	"rtroute/internal/parallel"
)

// Space bundles a graph, a distance oracle, and (lazily computed) Init_v
// total orders. The tie-breaking IDs default to the topological node
// indices; in TINN deployments callers may supply the node-name
// permutation instead (the paper's IDu, §2).
//
// Building Init_v touches only the two distance rows anchored at v
// (d(v,·) and d(·,v)), so a Space over a lazy oracle costs two Dijkstras
// per ordered node instead of an eager all-pairs pass.
//
// Orders are materialised only as deep as callers read: Neighborhood
// selects and sorts just the requested prefix, while Init and Rank sort
// all n nodes. The cache is not safe for concurrent fills; parallel
// builders call Precompute once and then read the orders freely.
type Space struct {
	G   *graph.Graph
	M   graph.DistanceOracle
	ids []int32

	// orders[v] holds the leading entries of Init_v materialised so
	// far: a prefix after Neighborhood, all n nodes after Init.
	orders [][]graph.NodeID
	ranks  [][]int32 // ranks[v][u] = position of u in Init_v, once full
}

// New creates a Space over g with a distance oracle m. If ids is nil the
// topological indices are used for tie-breaking.
func New(g *graph.Graph, m graph.DistanceOracle, ids []int32) *Space {
	if m.N() != g.N() {
		panic(fmt.Sprintf("rtmetric: metric over %d nodes, graph has %d", m.N(), g.N()))
	}
	if ids != nil && len(ids) != g.N() {
		panic(fmt.Sprintf("rtmetric: %d ids for %d nodes", len(ids), g.N()))
	}
	if ids == nil {
		ids = make([]int32, g.N())
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	return &Space{
		G:      g,
		M:      m,
		ids:    ids,
		orders: make([][]graph.NodeID, g.N()),
		ranks:  make([][]int32, g.N()),
	}
}

// Less reports whether a ≺_v b in the total order of §2: first by
// roundtrip distance r(v,·), then by distance d(·,v) toward v, then by ID.
func (s *Space) Less(v, a, b graph.NodeID) bool {
	ra, rb := s.M.R(v, a), s.M.R(v, b)
	if ra != rb {
		return ra < rb
	}
	da, db := s.M.D(a, v), s.M.D(b, v)
	if da != db {
		return da < db
	}
	return s.ids[a] < s.ids[b]
}

// rowOrder is ≺_v evaluated on the two distance rows anchored at v, so
// comparisons never go back to the oracle. Both the full sort and the
// prefix selection use cmp, which is why a prefix always equals the
// head of the full order.
type rowOrder struct {
	fwd, rev []graph.Dist // d(v, ·) and d(·, v)
	ids      []int32
}

func (o *rowOrder) cmp(a, b graph.NodeID) int {
	ra, rb := graph.RFromRows(o.fwd, o.rev, a), graph.RFromRows(o.fwd, o.rev, b)
	if ra != rb {
		return cmp.Compare(ra, rb)
	}
	if o.rev[a] != o.rev[b] {
		return cmp.Compare(o.rev[a], o.rev[b])
	}
	return cmp.Compare(o.ids[a], o.ids[b])
}

// smallest returns the m ≺_v-smallest nodes in order: a bounded max-heap
// keeps the m best seen so far, O(n log m), and only those m are sorted.
func (o *rowOrder) smallest(m int) []graph.NodeID {
	h := make([]graph.NodeID, 0, m)
	for u := range len(o.fwd) {
		x := graph.NodeID(u)
		if len(h) < m {
			h = append(h, x)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if o.cmp(h[p], h[i]) >= 0 {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if o.cmp(x, h[0]) >= 0 {
			continue
		}
		h[0] = x
		for i := 0; ; {
			c := 2*i + 1
			if c >= m {
				break
			}
			if c+1 < m && o.cmp(h[c+1], h[c]) > 0 {
				c++
			}
			if o.cmp(h[i], h[c]) >= 0 {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	slices.SortFunc(h, o.cmp)
	return h
}

// fill materialises at least size leading entries of Init_v (size in
// [1, n]) and returns the cached order. It fetches the two rows anchored
// at v once — one FromSource and one ToSink regardless of oracle kind —
// and writes only v's cache slots, so fills of distinct nodes may run
// concurrently.
func (s *Space) fill(v graph.NodeID, size int) []graph.NodeID {
	if ord := s.orders[v]; len(ord) >= size {
		return ord
	}
	n := s.G.N()
	o := rowOrder{fwd: s.M.FromSource(v), rev: s.M.ToSink(v), ids: s.ids}
	if size < n {
		ord := o.smallest(size)
		s.orders[v] = ord
		return ord
	}
	ord := make([]graph.NodeID, n)
	for i := range ord {
		ord[i] = graph.NodeID(i)
	}
	slices.SortFunc(ord, o.cmp)
	rank := make([]int32, n)
	for i, u := range ord {
		rank[u] = int32(i)
	}
	s.orders[v], s.ranks[v] = ord, rank
	return ord
}

// clamp bounds a prefix size to [1, n].
func (s *Space) clamp(size int) int {
	return max(1, min(size, s.G.N()))
}

// Init returns the total order Init_v = v ≺_v u1 ≺_v u2 ≺_v ... over all
// n nodes. The returned slice is cached and must not be modified.
func (s *Space) Init(v graph.NodeID) []graph.NodeID {
	return s.fill(v, s.G.N())
}

// Rank returns the position of u in Init_v (0 for u == v).
func (s *Space) Rank(v, u graph.NodeID) int {
	s.Init(v)
	return int(s.ranks[v][u])
}

// Neighborhood returns the first size nodes of Init_v (v itself included,
// as in the paper where Init_v begins with v). size is clamped to [1, n].
// Only the prefix is materialised; it equals Init(v)[:size].
func (s *Space) Neighborhood(v graph.NodeID, size int) []graph.NodeID {
	size = s.clamp(size)
	return s.fill(v, size)[:size]
}

// Contains reports whether u is among the first size nodes of Init_v,
// without materializing the slice.
func (s *Space) Contains(v graph.NodeID, size int, u graph.NodeID) bool {
	return s.Rank(v, u) < size
}

// Ball returns Nhat_m(v) = {w : r(v,w) <= m}, the radius ball of §4.
// Row-oriented: one FromSource plus one ToSink fetch.
func (s *Space) Ball(v graph.NodeID, m graph.Dist) []graph.NodeID {
	fwd, rev := s.M.FromSource(v), s.M.ToSink(v)
	var ball []graph.NodeID
	for u := 0; u < s.G.N(); u++ {
		if graph.RFromRows(fwd, rev, graph.NodeID(u)) <= m {
			ball = append(ball, graph.NodeID(u))
		}
	}
	return ball
}

// Precompute materialises, for every node v, at least the first size
// entries of Init_v (clamped to [1, n]; size n also fills the ranks)
// across a worker pool; workers <= 0 selects GOMAXPROCS. Afterwards
// Neighborhood up to size — and, at size n, Init and Rank — only read
// the cache, so parallel scheme builders may call them concurrently.
func (s *Space) Precompute(size, workers int) {
	size = s.clamp(size)
	// Each call writes only its own v's slots: disjoint.
	_ = parallel.ForEach(s.G.N(), workers, func(v int) error {
		s.fill(graph.NodeID(v), size)
		return nil
	})
}

// InvalidateOrders drops the cached Init_v orders of the given nodes,
// whatever their depth, so they are recomputed — against the oracle's
// current rows — on next access. The incremental maintainers call this
// with the churn dirty set: a node outside the may-use affected set of a
// topology event has bit-identical distance rows in both directions,
// hence a bit-identical Init order, so its cache entry stays valid
// across the mutation.
func (s *Space) InvalidateOrders(nodes []graph.NodeID) {
	for _, v := range nodes {
		s.orders[v] = nil
		s.ranks[v] = nil
	}
}

// NeighborhoodSizes returns the sizes |N_i(v)| = ceil(n^(i/k)) for
// i = 0..k, clamped to n. The paper assumes n is a perfect k-th power;
// ceiling sizes preserve every containment the proofs use
// (N_0 ⊆ N_1 ⊆ ... ⊆ N_k = V) for arbitrary n.
func NeighborhoodSizes(n, k int) []int {
	if k < 1 {
		panic(fmt.Sprintf("rtmetric: k must be >= 1, got %d", k))
	}
	sizes := make([]int, k+1)
	for i := 0; i <= k; i++ {
		s := int(math.Ceil(math.Pow(float64(n), float64(i)/float64(k))))
		if s < 1 {
			s = 1
		}
		if s > n {
			s = n
		}
		sizes[i] = s
	}
	sizes[k] = n
	return sizes
}
