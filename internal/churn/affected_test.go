package churn

import (
	"fmt"

	"rtroute/internal/graph"
)

// exactAffected is the eight-Dijkstra reference for Prober.Affected: it
// mutates edge (u, v) of g to weight wNew and returns the may-use
// affected node set: a sorted superset of every node whose
// shortest-path distance rows — in either direction, counting ties —
// differ between the old and new graph. Eight Dijkstras total: the four
// rows anchored at u and v on the old graph and the same four on the new.
//
// The set is exact for the schemes' purposes: a node x is
// source-affected iff some shortest path from x uses (or newly ties
// with) the edge, which on either graph is the equality
// d(x,v) = d(x,u) + w; destination-affected symmetrically via
// d(u,y) = w + d(v,y). Checking the equalities on both the pre- and
// post-mutation rows captures destroyed ties (weight increases) and
// created ties (decreases). Nodes outside the set keep bit-identical
// Dijkstra outcomes — distances and deterministic parent choices — in
// every solver the schemes run.
func exactAffected(g *graph.Graph, u, v graph.NodeID, wNew graph.Dist) []graph.NodeID {
	n := g.N()
	fuO := graph.Dijkstra(g, u).Dist
	fvO := graph.Dijkstra(g, v).Dist
	tuO := graph.DijkstraRev(g, u).Dist
	tvO := graph.DijkstraRev(g, v).Dist
	wOld, _ := g.EdgeWeight(u, v)

	if err := g.SetEdgeWeight(u, v, wNew); err != nil {
		panic(fmt.Sprintf("churn: reweight (%d,%d): %v", u, v, err))
	}
	fuN := graph.Dijkstra(g, u).Dist
	fvN := graph.Dijkstra(g, v).Dist
	tuN := graph.DijkstraRev(g, u).Dist
	tvN := graph.DijkstraRev(g, v).Dist

	var dirty []graph.NodeID
	for i := 0; i < n; i++ {
		x := graph.NodeID(i)
		srcAff := tvO[x] == tuO[x]+wOld || tvN[x] == tuN[x]+wNew
		dstAff := fuO[x] == wOld+fvO[x] || fuN[x] == wNew+fvN[x]
		if srcAff || dstAff {
			dirty = append(dirty, x)
		}
	}
	return dirty
}
