package graph

import "sync"

// SSSP holds the result of a single-source (or single-sink) shortest path
// computation.
type SSSP struct {
	// Dist[v] is the shortest distance from the source to v (forward run)
	// or from v to the sink (reverse run). Inf if unreachable.
	Dist []Dist
	// Parent[v] is the predecessor of v on a shortest path in the
	// traversal tree, or -1 for the root / unreachable nodes. For a
	// forward run Parent[v] is the node before v on a shortest
	// source->v path; for a reverse run it is the node after v on a
	// shortest v->sink path (v's next hop toward the sink).
	Parent []NodeID
}

// heapNode is one entry of the scratch's specialized priority queue:
// a plain (dist, node) pair, never boxed through an interface.
type heapNode struct {
	dist Dist
	node NodeID
}

// SSSPScratch is the reusable state of the Dijkstra core: distance,
// parent and heap-position arrays plus the 4-ary min-heap storage, all
// reused across runs so a steady-state shortest-path computation
// allocates nothing.
//
// Re-initialization is O(touched), not O(n): every per-node array is
// guarded by an epoch stamp, so starting a new run is one counter
// increment and entries are lazily initialized the first time the run
// touches their node. The heap is index-tracked (decrease-key instead of
// lazy deletion), so its size is bounded by n and pops carry final
// distances only.
//
// The SSSP values returned by the scratch's methods alias the scratch's
// own buffers: they are valid until the next run on the same scratch and
// must be treated as read-only. Callers that need the rows to outlive the
// scratch copy them. A scratch is not safe for concurrent use; use one
// per goroutine (AllPairsParallel does) or the package-level pool.
//
// The zero value is a valid empty scratch; buffers grow on first use.
type SSSPScratch struct {
	dist   []Dist
	parent []NodeID
	pos    []int32 // node -> heap index; -1 once settled. Valid when stamped.
	stamp  []uint32
	epoch  uint32
	heap   []heapNode
}

// NewSSSPScratch returns a scratch pre-sized for n-node graphs.
func NewSSSPScratch(n int) *SSSPScratch {
	s := &SSSPScratch{}
	s.ensure(n)
	return s
}

// ensure grows the per-node arrays to cover n nodes.
func (s *SSSPScratch) ensure(n int) {
	if len(s.dist) >= n {
		return
	}
	s.dist = make([]Dist, n)
	s.parent = make([]NodeID, n)
	s.pos = make([]int32, n)
	s.stamp = make([]uint32, n) // zeroed: nothing is stamped for any epoch >= 1
	s.epoch = 0
	if cap(s.heap) < n {
		s.heap = make([]heapNode, 0, n)
	}
}

// begin opens a new run: bump the epoch (un-stamping every node in O(1))
// and empty the heap. Epoch 0 is never used as a live epoch so that
// freshly zeroed stamp arrays mean "untouched".
func (s *SSSPScratch) begin() {
	s.epoch++
	if s.epoch == 0 { // wrapped after 2^32 runs: stamps are ambiguous, clear them
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.heap = s.heap[:0]
}

// less is the heap order: by distance, ties broken by node id. This is a
// strict total order, so the pop sequence — and therefore every parent
// choice — is identical to the previous container/heap implementation.
func less(a, b heapNode) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

// push inserts a node that is not currently in the heap.
func (s *SSSPScratch) push(node NodeID, d Dist) {
	s.heap = append(s.heap, heapNode{dist: d, node: node})
	s.siftUp(len(s.heap) - 1)
}

// decrease lowers the key of a node already in the heap.
func (s *SSSPScratch) decrease(node NodeID, d Dist) {
	i := int(s.pos[node])
	s.heap[i].dist = d
	s.siftUp(i)
}

func (s *SSSPScratch) siftUp(i int) {
	h := s.heap
	it := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(it, h[p]) {
			break
		}
		h[i] = h[p]
		s.pos[h[i].node] = int32(i)
		i = p
	}
	h[i] = it
	s.pos[it.node] = int32(i)
}

func (s *SSSPScratch) siftDown(i int) {
	h := s.heap
	n := len(h)
	it := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if less(h[j], h[best]) {
				best = j
			}
		}
		if !less(h[best], it) {
			break
		}
		h[i] = h[best]
		s.pos[h[i].node] = int32(i)
		i = best
	}
	h[i] = it
	s.pos[it.node] = int32(i)
}

// popMin removes and returns the heap minimum, marking the node settled.
func (s *SSSPScratch) popMin() heapNode {
	h := s.heap
	top := h[0]
	s.pos[top.node] = -1
	last := len(h) - 1
	if last > 0 {
		h[0] = h[last]
		s.heap = h[:last]
		s.siftDown(0)
	} else {
		s.heap = h[:0]
	}
	return top
}

// relax offers the tentative distance nd to v via parent.
func (s *SSSPScratch) relax(v NodeID, nd Dist, parent NodeID) {
	if s.stamp[v] != s.epoch {
		s.stamp[v] = s.epoch
		s.dist[v] = nd
		s.parent[v] = parent
		s.push(v, nd)
		return
	}
	if nd < s.dist[v] {
		s.dist[v] = nd
		s.parent[v] = parent
		s.decrease(v, nd)
	}
}

// Dijkstra computes shortest distances from src over out-edges, reusing
// the scratch's buffers: zero allocations in steady state. The returned
// slices alias the scratch and are valid until its next run.
func (s *SSSPScratch) Dijkstra(g *Graph, src NodeID) SSSP {
	return s.run(g, src, false, nil, Inf)
}

// DijkstraRev computes, for every node v, the shortest distance from v TO
// sink, running over in-edges; Parent[v] is v's next hop toward the sink.
// Same reuse contract as Dijkstra.
func (s *SSSPScratch) DijkstraRev(g *Graph, sink NodeID) SSSP {
	return s.run(g, sink, true, nil, Inf)
}

// DijkstraRestricted is Dijkstra over the subgraph induced by the nodes
// with inSet[v] true (the root is always traversed). Nodes outside the
// set report Inf / -1.
func (s *SSSPScratch) DijkstraRestricted(g *Graph, src NodeID, inSet []bool) SSSP {
	return s.run(g, src, false, inSet, Inf)
}

// DijkstraRevRestricted is DijkstraRev over the subgraph induced by inSet.
func (s *SSSPScratch) DijkstraRevRestricted(g *Graph, sink NodeID, inSet []bool) SSSP {
	return s.run(g, sink, true, inSet, Inf)
}

// DijkstraRevWithin is DijkstraRev settling only the nodes within
// distance limit of the sink: a node v with d(v, sink) < limit gets the
// distance and next hop DijkstraRev would give it, every other node
// reports Inf / -1. The run stops at the first node at distance limit or
// more, so its cost tracks the ball it settles, not the graph.
func (s *SSSPScratch) DijkstraRevWithin(g *Graph, sink NodeID, limit Dist) SSSP {
	return s.run(g, sink, true, nil, limit)
}

// run is the single Dijkstra loop behind every variant. When the graph is
// sealed it walks the flat CSR arrays directly (one index load for the
// whole run instead of one per pop); otherwise it uses the per-node build
// slices. Nodes are settled in (distance, id) order until the heap
// empties or its minimum reaches limit; a node's distance and parent are
// final once settled, so a limited run agrees with an unlimited one on
// every node it settles.
func (s *SSSPScratch) run(g *Graph, root NodeID, reverse bool, inSet []bool, limit Dist) SSSP {
	n := g.N()
	s.ensure(n)
	s.begin()
	s.stamp[root] = s.epoch
	s.dist[root] = 0
	s.parent[root] = -1
	s.push(root, 0)
	idx := g.idx.Load()
	for len(s.heap) > 0 && s.heap[0].dist < limit {
		top := s.popMin()
		u, du := top.node, top.dist
		if reverse {
			var edges []InEdge
			if idx != nil {
				edges = idx.inEdges[idx.inStart[u]:idx.inStart[u+1]]
			} else {
				edges = g.in[u]
			}
			for _, e := range edges {
				if inSet != nil && !inSet[e.From] {
					continue
				}
				s.relax(e.From, du+e.Weight, u)
			}
		} else {
			var edges []Edge
			if idx != nil {
				edges = idx.outEdges[idx.outStart[u]:idx.outStart[u+1]]
			} else {
				edges = g.out[u]
			}
			for _, e := range edges {
				if inSet != nil && !inSet[e.To] {
					continue
				}
				s.relax(e.To, du+e.Weight, u)
			}
		}
	}
	// Normalize untouched entries, and those a limit left unsettled in
	// the heap, so the returned rows are complete: one predictable
	// compare per node, writes only for unreached nodes.
	ep := s.epoch
	for v := 0; v < n; v++ {
		if s.stamp[v] != ep || s.pos[v] >= 0 {
			s.dist[v] = Inf
			s.parent[v] = -1
		}
	}
	return SSSP{Dist: s.dist[:n:n], Parent: s.parent[:n:n]}
}

// scratchPool recycles scratches for the one-shot package-level entry
// points (Dijkstra, DijkstraRev, the lazy oracle's row fills), so even
// callers without their own scratch pay only for the rows they keep.
var scratchPool = sync.Pool{New: func() any { return &SSSPScratch{} }}

func getScratch() *SSSPScratch  { return scratchPool.Get().(*SSSPScratch) }
func putScratch(s *SSSPScratch) { scratchPool.Put(s) }

// runPooled executes one run on a pooled scratch and copies the result
// rows into caller-owned slices — the shared body of every package-level
// entry point.
func runPooled(run func(*SSSPScratch) SSSP) SSSP {
	s := getScratch()
	r := run(s)
	out := SSSP{
		Dist:   append([]Dist(nil), r.Dist...),
		Parent: append([]NodeID(nil), r.Parent...),
	}
	putScratch(s)
	return out
}

// Dijkstra computes shortest distances from src over out-edges. The
// returned slices are freshly allocated and owned by the caller; use an
// SSSPScratch directly for the zero-allocation contract.
func Dijkstra(g *Graph, src NodeID) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.Dijkstra(g, src) })
}

// DijkstraRev computes, for every node v, the shortest distance from v TO
// sink, by running Dijkstra over in-edges. Parent[v] is v's successor on a
// shortest v->sink path, i.e. the next hop toward the sink. The returned
// slices are owned by the caller.
func DijkstraRev(g *Graph, sink NodeID) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.DijkstraRev(g, sink) })
}

// DijkstraRestricted is Dijkstra over the subgraph induced by the nodes
// with inSet[v] true (the root is always traversed); nodes outside the
// set report Inf / -1. Pooled scratch, caller-owned result slices.
func DijkstraRestricted(g *Graph, src NodeID, inSet []bool) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.DijkstraRestricted(g, src, inSet) })
}

// DijkstraRevRestricted is DijkstraRev over the subgraph induced by
// inSet. Pooled scratch, caller-owned result slices.
func DijkstraRevRestricted(g *Graph, sink NodeID, inSet []bool) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.DijkstraRevRestricted(g, sink, inSet) })
}

// DenseMetric is the eager all-pairs distance matrix of a graph together
// with the derived roundtrip metric r(u,v) = d(u,v) + d(v,u) (§1.1 of the
// paper): O(n^2) words, O(1) queries. It is the reference DistanceOracle;
// see LazyOracle for the bounded-memory alternative.
type DenseMetric struct {
	n int
	d [][]Dist

	// tr is the lazily built transpose (tr[v][u] = d(u,v)), so ToSink is
	// an O(1) slice return after the first call instead of an O(n) copy
	// per call. Built once under trOnce; costs one extra n^2 block only
	// when some consumer actually asks for columns.
	trOnce sync.Once
	tr     [][]Dist
}

// Metric is the historical name of DenseMetric, kept as an alias for the
// experiment harness and tests.
type Metric = DenseMetric

// AllPairs computes the full distance matrix. The per-source Dijkstras
// are embarrassingly parallel, so it fans out over GOMAXPROCS workers;
// use AllPairsSequential for a single-threaded build (benchmark baseline).
func AllPairs(g *Graph) *DenseMetric {
	return AllPairsParallel(g, 0)
}

// AllPairsSequential runs the n forward Dijkstras on the calling
// goroutine through one reused scratch. Same output as AllPairs.
func AllPairsSequential(g *Graph) *DenseMetric {
	n := g.N()
	m := &DenseMetric{n: n, d: make([][]Dist, n)}
	s := getScratch()
	for u := 0; u < n; u++ {
		r := s.Dijkstra(g, NodeID(u))
		m.d[u] = append([]Dist(nil), r.Dist...)
	}
	putScratch(s)
	return m
}

// N returns the number of nodes the metric was computed over.
func (m *DenseMetric) N() int { return m.n }

// D returns the one-way shortest distance d(u,v).
func (m *DenseMetric) D(u, v NodeID) Dist { return m.d[u][v] }

// R returns the roundtrip distance r(u,v) = d(u,v) + d(v,u). R is a
// genuine metric on strongly connected digraphs: symmetric, zero iff
// u == v, and satisfying the triangle inequality.
func (m *DenseMetric) R(u, v NodeID) Dist {
	duv, dvu := m.d[u][v], m.d[v][u]
	if duv >= Inf || dvu >= Inf {
		return Inf
	}
	return duv + dvu
}

// FromSource implements DistanceOracle: the row d(u, ·). The returned
// slice is owned by the metric and must not be modified.
func (m *DenseMetric) FromSource(u NodeID) []Dist { return m.d[u] }

// ToSink implements DistanceOracle: the column d(·, v). The first call
// builds the full transpose once (concurrency-safe); every call returns
// a cached slice that must not be modified.
func (m *DenseMetric) ToSink(v NodeID) []Dist {
	m.trOnce.Do(func() {
		tr := make([][]Dist, m.n)
		for u := 0; u < m.n; u++ {
			tr[u] = make([]Dist, m.n)
		}
		for u := 0; u < m.n; u++ {
			row := m.d[u]
			for w := 0; w < m.n; w++ {
				tr[w][u] = row[w]
			}
		}
		m.tr = tr
	})
	return m.tr[v]
}

// RTDiam returns the roundtrip diameter max_{u,v} r(u,v).
func (m *DenseMetric) RTDiam() Dist {
	var diam Dist
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			if r := m.R(NodeID(u), NodeID(v)); r > diam {
				diam = r
			}
		}
	}
	return diam
}

// Diam returns the one-way diameter max_{u,v} d(u,v).
func (m *DenseMetric) Diam() Dist {
	var diam Dist
	for u := range m.d {
		for _, d := range m.d[u] {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
