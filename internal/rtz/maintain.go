package rtz

import (
	"fmt"
	"math/rand"

	"rtroute/internal/graph"
	"rtroute/internal/tree"
)

// Maintainer keeps a live stretch-3 scheme consistent with a mutating
// graph by delta-rebuilding exactly the state a batch of edge events can
// touch, instead of reconstructing the whole substrate. It retains the
// construction intermediates a from-scratch build throws away — the
// per-center double-trees (which also serve as per-center distance rows),
// the center radii r(v, A), and the per-destination cluster member lists —
// and guarantees that after Apply the scheme is identical, entry for
// entry, to what New would build on the mutated graph with the same
// centers.
//
// The dirty contract: Apply(dirty) is correct whenever dirty is a
// superset of the may-use affected sets of the events since the last
// Apply — every node x whose outgoing shortest-path distances could have
// changed (or gained/lost a tie) and every node y whose incoming ones
// could have. churn.Affected computes exactly that set from 8 Dijkstras
// per event. Per-scheme dirty derivation from that one node set:
//
//   - center trees: center w's out-tree can change only if d(w, ·)
//     changed somewhere (w in the source-affected set) and its in-tree
//     only if d(·, w) changed (w destination-affected) — so only trees of
//     centers IN dirty are rebuilt (full double-tree rebuild, giving
//     bit-identical DFS intervals to a fresh build);
//   - nearest centers and labels: r(v, w) for every (node, center) pair
//     is re-read from the maintained trees — pure arithmetic, no solver;
//   - clusters: C(y) = {x : r(x,y) < r(y,A)} can change only if y is
//     dirty (membership and parents both need a d(·,y) or radius change),
//     or if r(y,A) itself moved; those destinations are re-solved with
//     one reverse Dijkstra each, stale entries removed via the member
//     lists.
type Maintainer struct {
	s *Scheme
	m graph.DistanceOracle

	trees        []*tree.Tree
	centerRadius []graph.Dist
	members      [][]graph.NodeID
	scratch      *graph.SSSPScratch
}

// MaintainReport accounts one Apply: what the delta rebuild actually
// touched, for the churn experiments' delta-cost metrics.
type MaintainReport struct {
	// DirtyNodes is the size of the dirty set handed in — the nodes whose
	// per-node solver state was re-derived.
	DirtyNodes int
	// RebuiltTrees counts center double-trees rebuilt from scratch.
	RebuiltTrees int
	// RebuiltClusters counts destinations whose cluster was re-solved
	// (one reverse Dijkstra plus one oracle row each).
	RebuiltClusters int
	// ChangedLabels lists nodes whose address R3(v) changed — including
	// nodes outside the dirty set whose tree label was renumbered by a
	// center-tree rebuild. Their stored state is patched by value
	// (no solver work), and dictionary layers above must re-point their
	// copies.
	ChangedLabels []graph.NodeID
}

// NewMaintained builds the scheme exactly as New does (same rng
// consumption, same centers, same tables) but keeps the construction
// intermediates for incremental maintenance. The returned scheme's
// tables stay unsealed; routing behavior is identical. workers is the
// build's worker count, as for New; Apply always runs sequentially.
func NewMaintained(g *graph.Graph, m graph.DistanceOracle, rng *rand.Rand, cfg Config, workers int) (*Maintainer, error) {
	mt := &Maintainer{}
	if _, err := build(g, m, rng, cfg, workers, mt); err != nil {
		return nil, err
	}
	return mt, nil
}

// Scheme returns the maintained live scheme.
func (mt *Maintainer) Scheme() *Scheme { return mt.s }

// labelEqual compares two substrate addresses structurally (tree labels
// carry a light-hop slice, so == does not apply).
func labelEqual(a, b Label) bool {
	if a.Node != b.Node || a.CenterIdx != b.CenterIdx || a.Center != b.Center {
		return false
	}
	if a.TreeLabel.Tin != b.TreeLabel.Tin || len(a.TreeLabel.Light) != len(b.TreeLabel.Light) {
		return false
	}
	for i := range a.TreeLabel.Light {
		if a.TreeLabel.Light[i] != b.TreeLabel.Light[i] {
			return false
		}
	}
	return true
}

// Apply incorporates a batch of topology mutations whose may-use affected
// set is covered by dirty. The graph must already be mutated; dirty must
// list every node whose anchored distance rows may have changed (both
// directions). On return the scheme equals what New would build from
// scratch on the current graph.
func (mt *Maintainer) Apply(dirty []graph.NodeID) (MaintainReport, error) {
	s := mt.s
	g := s.g
	n := g.N()
	rep := MaintainReport{DirtyNodes: len(dirty)}
	inDirty := make([]bool, n)
	for _, v := range dirty {
		inDirty[v] = true
	}

	// 1. Rebuild the double-trees of dirty centers; patch every node's
	// per-center slots (cheap vector writes, identical to a fresh build's
	// fill loop).
	for ci, w := range s.Centers {
		if !inDirty[w] {
			continue
		}
		t, err := tree.BuildDouble(g, w, nil)
		if err != nil {
			return rep, fmt.Errorf("rtz: maintain center %d: %w", w, err)
		}
		mt.trees[ci] = t
		for v := 0; v < n; v++ {
			st, _ := t.State(graph.NodeID(v))
			s.Tables[v].TreeStates[ci] = st
			if graph.NodeID(v) != w {
				p, ok := t.InPort(graph.NodeID(v))
				if !ok {
					return rep, fmt.Errorf("rtz: node %d missing in-port toward center %d", v, w)
				}
				s.Tables[v].InPorts[ci] = p
			}
		}
		rep.RebuiltTrees++
	}

	// 2. Re-derive nearest centers, radii and labels for every node from
	// the maintained trees: r(v, w) = d(v,w) + d(w,v) is two map reads per
	// (node, center) pair, and the argmin replicates New's tie-break
	// exactly. Pure arithmetic — no per-node solver work.
	newRadius := make([]graph.Dist, n)
	for v := 0; v < n; v++ {
		best, bestIdx := graph.Inf, -1
		for ci, w := range s.Centers {
			df, _ := mt.trees[ci].DistFrom(graph.NodeID(v)) // d(w, v)
			dt, _ := mt.trees[ci].DistTo(graph.NodeID(v))   // d(v, w)
			r := dt + df
			if r < best || (r == best && bestIdx >= 0 && w < s.Centers[bestIdx]) {
				best, bestIdx = r, ci
			}
		}
		newRadius[v] = best
		lbl, _ := mt.trees[bestIdx].LabelOf(graph.NodeID(v))
		nl := Label{
			Node:      graph.NodeID(v),
			CenterIdx: int32(bestIdx),
			Center:    s.Centers[bestIdx],
			TreeLabel: lbl,
		}
		if !labelEqual(s.Labels[v], nl) {
			rep.ChangedLabels = append(rep.ChangedLabels, graph.NodeID(v))
			s.Labels[v] = nl
		}
	}

	// 3. Re-solve clusters for destinations that can have changed: dirty
	// nodes plus any destination whose center radius moved. Stale entries
	// come out via the member lists before the fresh ones go in.
	for y := 0; y < n; y++ {
		if !inDirty[y] && newRadius[y] == mt.centerRadius[y] {
			continue
		}
		yid := graph.NodeID(y)
		for _, x := range mt.members[y] {
			delete(s.Tables[x].Direct, yid)
		}
		rev := mt.scratch.DijkstraRev(g, yid)
		toY := rev.Dist
		fromY := mt.m.FromSource(yid)
		radius := newRadius[y]
		var members []graph.NodeID
		for x := 0; x < n; x++ {
			if x != y && graph.RFromRows(fromY, toY, graph.NodeID(x)) < radius {
				members = append(members, graph.NodeID(x))
			}
		}
		for _, x := range members {
			next := rev.Parent[x]
			port, ok := g.PortTo(x, next)
			if !ok {
				return rep, fmt.Errorf("rtz: missing edge (%d,%d) for direct entry", x, next)
			}
			s.Tables[x].Direct[yid] = port
		}
		mt.members[y] = members
		rep.RebuiltClusters++
	}
	mt.centerRadius = newRadius
	return rep, nil
}
