package graph

import "rtroute/internal/parallel"

// AllPairsParallel computes the same metric as AllPairs using a worker
// pool — the all-pairs pass dominates preprocessing, and the per-source
// Dijkstras are embarrassingly parallel. workers <= 0 selects GOMAXPROCS.
func AllPairsParallel(g *Graph, workers int) *Metric {
	n := g.N()
	workers = parallel.Workers(n, workers)
	if workers == 1 {
		return AllPairsSequential(g)
	}
	m := &Metric{n: n, d: make([][]Dist, n)}
	// One scratch per worker: every row after the first is a
	// zero-allocation Dijkstra plus one owned-row copy.
	scratch := make([]*SSSPScratch, workers)
	_ = parallel.ForEachWorker(n, workers, func(w, u int) error {
		if scratch[w] == nil {
			scratch[w] = NewSSSPScratch(n)
		}
		m.d[u] = append([]Dist(nil), scratch[w].Dijkstra(g, NodeID(u)).Dist...)
		return nil
	})
	return m
}
