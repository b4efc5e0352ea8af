// Package tree implements fixed-port compact routing on rooted trees
// (Lemma 14 of the paper, after Thorup–Zwick and Fraigniaud–Gavoille):
// given a shortest-path out-tree rooted at r, every node keeps O(1) words
// of state and every destination gets an O(log n)-entry label such that
// the route from r to any node u follows the tree path exactly — in the
// fixed-port model, using only (local state, label) at each step.
//
// The package also builds in-trees (every member stores the port of its
// next hop on a shortest path toward the root) and double-trees, the
// union of the two used throughout §3 and §4.
//
// The label scheme is heavy-path decomposition: each tree node records
// its DFS interval and the port plus interval of its heavy child; a
// label lists, for every light edge on the root-to-destination path, the
// branch node's DFS entry time and the port taken there. Any root-to-node
// path crosses at most log2(n) light edges, so labels have O(log n)
// entries.
package tree

import (
	"fmt"
	"math"

	"rtroute/internal/graph"
)

// State is the O(1)-word node-local routing state for one tree.
type State struct {
	Tin, Tout           int32        // DFS interval of this node's subtree
	HeavyPort           graph.PortID // port to heavy child, -1 if leaf
	HeavyTin, HeavyTout int32        // DFS interval of the heavy child's subtree
}

// LightHop records one light edge of a root-to-node tree path: at the
// branch node whose DFS entry time is BranchTin, leave on Port.
type LightHop struct {
	BranchTin int32
	Port      graph.PortID
}

// Label is the topology-dependent address of a node within one tree.
type Label struct {
	Tin   int32
	Light []LightHop
}

// Words returns the size of the label in machine words, the unit used by
// the header-size accounting of the schemes (O(log^2 n) bits total).
func (l Label) Words() int { return 1 + 2*len(l.Light) }

// ErrNotInSubtree is reported by NextPort when the current node is not an
// ancestor of the destination — i.e. the caller violated the route-
// through-the-root discipline.
var ErrNotInSubtree = fmt.Errorf("tree: current node is not an ancestor of the destination")

// NextPort is the out-tree forwarding function: given only the current
// node's per-tree State and the destination Label, it returns the port to
// take, or delivered = true when the label addresses the current node.
func NextPort(st State, lbl Label) (port graph.PortID, delivered bool, err error) {
	if lbl.Tin == st.Tin {
		return 0, true, nil
	}
	if lbl.Tin < st.Tin || lbl.Tin > st.Tout {
		return 0, false, ErrNotInSubtree
	}
	if st.HeavyPort >= 0 && lbl.Tin >= st.HeavyTin && lbl.Tin <= st.HeavyTout {
		return st.HeavyPort, false, nil
	}
	for _, h := range lbl.Light {
		if h.BranchTin == st.Tin {
			return h.Port, false, nil
		}
	}
	return 0, false, fmt.Errorf("tree: no light-hop entry for branch node (tin=%d) toward tin=%d", st.Tin, lbl.Tin)
}

// Tree is a double-tree over a member set: a shortest-path out-tree from
// Root (with compact routing state and labels) plus an in-tree (every
// member's next-hop port toward Root on a shortest path). Distances are
// measured in the subgraph induced by the member set, as §4 requires for
// clusters.
type Tree struct {
	Root graph.NodeID
	// Members in ascending node order.
	Members []graph.NodeID

	states   map[graph.NodeID]State
	labels   map[graph.NodeID]Label
	inPort   map[graph.NodeID]graph.PortID
	distFrom map[graph.NodeID]graph.Dist // d_C(Root, v)
	distTo   map[graph.NodeID]graph.Dist // d_C(v, Root)
	rtHeight graph.Dist
}

// BuildDouble builds the double-tree for the given member set rooted at
// root. members == nil means all nodes of g. It fails if the induced
// subgraph does not strongly connect the members through themselves.
func BuildDouble(g *graph.Graph, root graph.NodeID, members []graph.NodeID) (*Tree, error) {
	n := g.N()
	inSet := make([]bool, n)
	if members == nil {
		members = make([]graph.NodeID, n)
		for i := range members {
			members[i] = graph.NodeID(i)
			inSet[i] = true
		}
	} else {
		sorted := append([]graph.NodeID(nil), members...)
		sortNodeIDs(sorted)
		members = sorted
		for _, v := range members {
			inSet[v] = true
		}
	}
	if !inSet[root] {
		return nil, fmt.Errorf("tree: root %d not in member set", root)
	}

	t := &Tree{
		Root:     root,
		Members:  members,
		states:   make(map[graph.NodeID]State, len(members)),
		labels:   make(map[graph.NodeID]Label, len(members)),
		inPort:   make(map[graph.NodeID]graph.PortID, len(members)),
		distFrom: make(map[graph.NodeID]graph.Dist, len(members)),
		distTo:   make(map[graph.NodeID]graph.Dist, len(members)),
	}

	// Restricted forward Dijkstra: out-tree parents.
	distFrom, parentFrom := restrictedDijkstra(g, root, inSet, false)
	// Restricted reverse Dijkstra: in-tree next hops.
	distTo, nextTo := restrictedDijkstra(g, root, inSet, true)
	for _, v := range members {
		if distFrom[v] >= graph.Inf || distTo[v] >= graph.Inf {
			return nil, fmt.Errorf("tree: member %d unreachable within the induced subgraph of root %d", v, root)
		}
		t.distFrom[v] = distFrom[v]
		t.distTo[v] = distTo[v]
		if rt := distFrom[v] + distTo[v]; rt > t.rtHeight {
			t.rtHeight = rt
		}
		if v != root {
			port, ok := g.PortTo(v, nextTo[v])
			if !ok {
				return nil, fmt.Errorf("tree: missing edge (%d,%d) for in-tree", v, nextTo[v])
			}
			t.inPort[v] = port
		}
	}

	if err := t.buildOutRouting(g, parentFrom); err != nil {
		return nil, err
	}
	return t, nil
}

// buildOutRouting computes DFS intervals, heavy children and labels for
// the out-tree given parent pointers.
func (t *Tree) buildOutRouting(g *graph.Graph, parent []graph.NodeID) error {
	children := make(map[graph.NodeID][]graph.NodeID, len(t.Members))
	for _, v := range t.Members {
		if v == t.Root {
			continue
		}
		p := parent[v]
		children[p] = append(children[p], v)
	}

	// Iterative post-order to compute subtree sizes.
	size := make(map[graph.NodeID]int32, len(t.Members))
	type frame struct {
		node graph.NodeID
		idx  int
	}
	stack := []frame{{node: t.Root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := children[f.node]
		if f.idx < len(kids) {
			c := kids[f.idx]
			f.idx++
			stack = append(stack, frame{node: c})
			continue
		}
		s := int32(1)
		for _, c := range kids {
			s += size[c]
		}
		size[f.node] = s
		stack = stack[:len(stack)-1]
	}

	// Iterative pre-order DFS assigning tin/tout, visiting the heavy
	// child first (cosmetic; correctness only needs intervals).
	tin := make(map[graph.NodeID]int32, len(t.Members))
	tout := make(map[graph.NodeID]int32, len(t.Members))
	heavy := make(map[graph.NodeID]graph.NodeID, len(t.Members))
	var counter int32
	stack = stack[:0]
	stack = append(stack, frame{node: t.Root})
	order := make([]graph.NodeID, 0, len(t.Members))
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx == 0 {
			tin[f.node] = counter
			counter++
			order = append(order, f.node)
			// Pick the heavy child (max subtree size, ties by node id).
			var h graph.NodeID = -1
			var hs int32 = -1
			for _, c := range children[f.node] {
				if size[c] > hs || (size[c] == hs && (h < 0 || c < h)) {
					h, hs = c, size[c]
				}
			}
			if h >= 0 {
				heavy[f.node] = h
			}
		}
		kids := children[f.node]
		if f.idx < len(kids) {
			c := kids[f.idx]
			f.idx++
			stack = append(stack, frame{node: c})
			continue
		}
		tout[f.node] = counter - 1
		stack = stack[:len(stack)-1]
	}
	if int(counter) != len(t.Members) {
		return fmt.Errorf("tree: DFS visited %d of %d members", counter, len(t.Members))
	}

	for _, v := range t.Members {
		st := State{Tin: tin[v], Tout: tout[v], HeavyPort: -1}
		if h, ok := heavy[v]; ok {
			port, ok := g.PortTo(v, h)
			if !ok {
				return fmt.Errorf("tree: missing edge (%d,%d) for out-tree", v, h)
			}
			st.HeavyPort = port
			st.HeavyTin = tin[h]
			st.HeavyTout = tout[h]
		}
		t.states[v] = st
	}

	// Labels: walk each root-to-node path once in DFS order, carrying the
	// light-hop prefix.
	prefix := make(map[graph.NodeID][]LightHop, len(t.Members))
	prefix[t.Root] = nil
	for _, v := range order {
		if v == t.Root {
			continue
		}
		p := parent[v]
		pp := prefix[p]
		if heavy[p] == v {
			prefix[v] = pp
		} else {
			port, ok := g.PortTo(p, v)
			if !ok {
				return fmt.Errorf("tree: missing edge (%d,%d) for light hop", p, v)
			}
			hops := make([]LightHop, len(pp), len(pp)+1)
			copy(hops, pp)
			prefix[v] = append(hops, LightHop{BranchTin: tin[p], Port: port})
		}
	}
	for _, v := range t.Members {
		t.labels[v] = Label{Tin: tin[v], Light: prefix[v]}
	}
	return nil
}

// restrictedDijkstra runs Dijkstra from root over the subgraph induced by
// inSet, on graph's pooled scratches. Forward mode returns parent
// pointers (predecessor on shortest root->v path); reverse mode returns
// next-hop pointers (successor on shortest v->root path). The returned
// slices are owned by the caller.
func restrictedDijkstra(g *graph.Graph, root graph.NodeID, inSet []bool, reverse bool) ([]graph.Dist, []graph.NodeID) {
	var r graph.SSSP
	if reverse {
		r = graph.DijkstraRevRestricted(g, root, inSet)
	} else {
		r = graph.DijkstraRestricted(g, root, inSet)
	}
	return r.Dist, r.Parent
}

func sortNodeIDs(s []graph.NodeID) {
	// Insertion sort is fine for the small member slices used in tests;
	// larger callers pass pre-sorted slices. Use a simple shell sort to
	// stay dependable on big inputs too.
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			for j := i; j >= gap && s[j] < s[j-gap]; j -= gap {
				s[j], s[j-gap] = s[j-gap], s[j]
			}
		}
	}
}

// Contains reports whether v is a member of the tree.
func (t *Tree) Contains(v graph.NodeID) bool {
	_, ok := t.states[v]
	return ok
}

// State returns v's per-tree routing state.
func (t *Tree) State(v graph.NodeID) (State, bool) {
	st, ok := t.states[v]
	return st, ok
}

// LabelOf returns v's address within the out-tree.
func (t *Tree) LabelOf(v graph.NodeID) (Label, bool) {
	l, ok := t.labels[v]
	return l, ok
}

// InPort returns the port of v's next hop toward the root on the in-tree
// (undefined for the root itself).
func (t *Tree) InPort(v graph.NodeID) (graph.PortID, bool) {
	p, ok := t.inPort[v]
	return p, ok
}

// DistFrom returns d_C(Root, v) within the member-induced subgraph.
func (t *Tree) DistFrom(v graph.NodeID) (graph.Dist, bool) {
	d, ok := t.distFrom[v]
	return d, ok
}

// DistTo returns d_C(v, Root) within the member-induced subgraph.
func (t *Tree) DistTo(v graph.NodeID) (graph.Dist, bool) {
	d, ok := t.distTo[v]
	return d, ok
}

// RTHeight returns max_v (d_C(Root,v) + d_C(v,Root)), the roundtrip
// height of the double-tree (§3.2).
func (t *Tree) RTHeight() graph.Dist { return t.rtHeight }

// TheoreticalLabelBound returns the heavy-path bound on light hops for a
// tree of the given size: floor(log2(size)) light edges on any path.
func TheoreticalLabelBound(size int) int {
	if size <= 1 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(size))))
}
