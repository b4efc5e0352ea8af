// Package rtz implements the name-dependent (topology-dependent) roundtrip
// routing substrates the paper imports from Roditty, Thorup and Zwick
// ("Roundtrip spanners and roundtrip routing in directed graphs", SODA'02):
//
//   - Scheme: the O~(sqrt n)-space stretch-3 roundtrip scheme of Lemma 2,
//     with topology-dependent addresses R3(v) and the one-way guarantee
//     p(u,v) <= r(u,v) + d(u,v) used throughout §2's analysis.
//
//   - HopScheme: the double-tree-cover scheme behind Lemma 5, exposing the
//     R2(u,v) "handshake" labels and Hop(u,v) routes the §3 scheme stores
//     in its distributed dictionary. Built on the paper's own Theorem 13
//     covers (per §4.4 this improves RTZ's roundtrip stretch to 4k-2+eps).
//
// Construction of Scheme, following Thorup–Zwick style sampling adapted to
// the roundtrip metric:
//
//   - Sample a center set A (about sqrt(n ln n) nodes). For each center w,
//     build a full double-tree: every node stores its next-hop port toward
//     w (in-tree) and O(1) tree-routing state for w's out-tree.
//   - a(v) = the center nearest to v in roundtrip distance; the address
//     R3(v) = (v, a(v), v's label in a(v)'s out-tree).
//   - Every node x with r(x,y) < r(y,A) stores a direct entry for y: the
//     first-hop port of a shortest x->y path. Crucially this cluster
//     C(y) = {x : r(x,y) < r(y,A)} is defined by the DESTINATION's
//     center-radius, which makes it closed under shortest-path subpaths
//     (if x' is on a shortest x->y path then r(x',y) <= r(x,y) < r(y,A)),
//     so a direct route never strands a packet at a node without an entry.
//
// Routing x->y with R3(y): deliver if x = y; follow the direct entry if
// present; otherwise climb the in-tree of a(y) and descend a(y)'s
// out-tree using y's tree label. One-way cost: d(x,y) when direct, else
// d(x,a(y)) + d(a(y),y) <= d(x,y) + r(y,A) <= d(x,y) + r(x,y) since
// x outside C(y) means r(y,A) <= r(x,y). A roundtrip that carries R3(s)
// back therefore costs at most r(s,t) + 2*r(s,t) = 3*r(s,t): stretch 3.
package rtz

import (
	"fmt"
	"math"
	"math/rand"

	"rtroute/internal/graph"
	"rtroute/internal/parallel"
	"rtroute/internal/sealed"
	"rtroute/internal/tree"
)

// Label is the topology-dependent address R3(v): o(log^2 n) bits.
type Label struct {
	Node      graph.NodeID // v itself (topological index)
	CenterIdx int32        // index of a(v) in the scheme's center list
	Center    graph.NodeID // a(v)
	TreeLabel tree.Label   // v's address in a(v)'s out-tree
}

// Words returns the label size in machine words for header accounting.
func (l Label) Words() int { return 3 + l.TreeLabel.Words() }

// Phase tracks the progress of a one-way route in the packet header.
type Phase int8

const (
	// PhaseSeek means the packet is climbing toward the destination's
	// center (or following direct entries when it meets them).
	PhaseSeek Phase = iota
	// PhaseDescend means the packet is inside the center's out-tree.
	PhaseDescend
	// PhaseDirect means the packet is on a stored shortest path to the
	// destination; it never leaves this phase.
	PhaseDirect
)

// Header is the mutable routing state carried by a one-way packet.
type Header struct {
	Dest  graph.NodeID
	Label Label
	Phase Phase
}

// Words returns the header size in machine words.
func (h Header) Words() int { return 2 + h.Label.Words() }

// Table is the node-local storage of the stretch-3 scheme. All slices are
// indexed by center index.
type Table struct {
	Self       graph.NodeID
	InPorts    []graph.PortID // next-hop port toward each center
	TreeStates []tree.State   // O(1) routing state in each center's out-tree
	// Direct maps destination -> first-hop port of a shortest path, for
	// every destination whose cluster contains this node. Builder state
	// only: Seal compiles it into the probe table the forwarding hot
	// path reads and then drops the map, so a long-lived serving plane
	// does not hold the cluster entries twice. Read entries through
	// DirectPort / DirectEntries, which serve sealed and unsealed
	// (hand-built) tables alike.
	Direct map[graph.NodeID]graph.PortID
	direct sealed.Table[graph.PortID]
}

// Words returns the table size in machine words (the O~(sqrt n) of §2.1).
func (t *Table) Words() int {
	n := len(t.Direct)
	if t.direct.Built() {
		n = t.direct.Len()
	}
	return 1 + len(t.InPorts) + 5*len(t.TreeStates) + 2*n
}

// Seal compiles the Direct map into the flat probe table and releases
// the builder map. New calls it on every table.
func (t *Table) Seal() {
	t.direct = sealed.Compile(t.Direct)
	t.Direct = nil
}

// DirectPort returns the stored first-hop port toward dst, if any.
func (t *Table) DirectPort(dst graph.NodeID) (graph.PortID, bool) {
	if !t.direct.Built() {
		p, ok := t.Direct[dst]
		return p, ok
	}
	return t.direct.Get(dst)
}

// DirectEntries calls fn for every stored direct entry, in unspecified
// order (the introspection hook the property tests use).
func (t *Table) DirectEntries(fn func(dst graph.NodeID, port graph.PortID)) {
	if t.direct.Built() {
		t.direct.Range(func(k int32, p graph.PortID) { fn(k, p) })
		return
	}
	for dst, p := range t.Direct {
		fn(dst, p)
	}
}

// DirectCount returns the number of stored direct entries.
func (t *Table) DirectCount() int {
	if t.direct.Built() {
		return t.direct.Len()
	}
	return len(t.Direct)
}

// Config tunes scheme construction.
type Config struct {
	// CenterCount overrides the default ceil(sqrt(n*ln n)) sample size.
	CenterCount int
}

// Scheme is the built stretch-3 name-dependent roundtrip routing scheme.
type Scheme struct {
	Centers []graph.NodeID
	Tables  []*Table
	Labels  []Label

	g *graph.Graph
}

// New builds the scheme over g with distance oracle m. Construction is
// row-oriented: every oracle access is anchored at one node at a time, so
// a bounded lazy oracle serves it without materializing n^2 distances.
// workers is the build's worker count (0 = GOMAXPROCS, 1 = sequential);
// the scheme is identical for every value.
func New(g *graph.Graph, m graph.DistanceOracle, rng *rand.Rand, cfg Config, workers int) (*Scheme, error) {
	s, err := build(g, m, rng, cfg, workers, nil)
	if err != nil {
		return nil, err
	}
	for _, t := range s.Tables {
		t.Seal()
	}
	return s, nil
}

// build is the shared construction body. When retain is non-nil it is a
// maintained build: the per-center trees, center radii and cluster member
// lists are kept for incremental updates, and the tables stay unsealed so
// the maintainer can patch Direct entries in place. Either way the routing
// content produced is identical.
//
// Three stages run on the worker pool: the per-center double-trees, the
// per-node pass (tree slots, nearest center, label) and the
// per-destination cluster solves. Only the Direct maps are filled
// serially, since one node's map takes entries from many destinations.
func build(g *graph.Graph, m graph.DistanceOracle, rng *rand.Rand, cfg Config, workers int, retain *Maintainer) (*Scheme, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("rtz: need at least 2 nodes, got %d", n)
	}
	count := cfg.CenterCount
	if count <= 0 {
		count = int(math.Ceil(math.Sqrt(float64(n) * math.Max(1, math.Log(float64(n))))))
	}
	if count > n {
		count = n
	}

	perm := rng.Perm(n)
	centers := make([]graph.NodeID, count)
	for i := 0; i < count; i++ {
		centers[i] = graph.NodeID(perm[i])
	}

	// Full double-tree per center.
	trees := make([]*tree.Tree, count)
	err := parallel.ForEach(count, workers, func(ci int) error {
		t, err := tree.BuildDouble(g, centers[ci], nil)
		if err != nil {
			return fmt.Errorf("rtz: center %d: %w", centers[ci], err)
		}
		trees[ci] = t
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Per node: its slot in every center's trees, then its nearest
	// center and label. r(v, w) = d(v,w) + d(w,v) comes from the two rows
	// anchored at v, fetched once per node.
	s := &Scheme{Centers: centers, g: g, Tables: make([]*Table, n), Labels: make([]Label, n)}
	centerRadius := make([]graph.Dist, n) // r(v, A)
	err = parallel.ForEach(n, workers, func(v int) error {
		vid := graph.NodeID(v)
		tab := &Table{
			Self:       vid,
			InPorts:    make([]graph.PortID, count),
			TreeStates: make([]tree.State, count),
			Direct:     make(map[graph.NodeID]graph.PortID),
		}
		for ci, t := range trees {
			tab.TreeStates[ci], _ = t.State(vid)
			if vid != centers[ci] {
				p, ok := t.InPort(vid)
				if !ok {
					return fmt.Errorf("rtz: node %d missing in-port toward center %d", v, centers[ci])
				}
				tab.InPorts[ci] = p
			}
		}
		s.Tables[v] = tab

		fwd := m.FromSource(vid) // d(v, ·)
		rev := m.ToSink(vid)     // d(·, v)
		best, bestIdx := graph.Inf, -1
		for ci, w := range centers {
			r := graph.RFromRows(fwd, rev, w)
			if r < best || (r == best && bestIdx >= 0 && w < centers[bestIdx]) {
				best, bestIdx = r, ci
			}
		}
		centerRadius[v] = best
		lbl, _ := trees[bestIdx].LabelOf(vid)
		s.Labels[v] = Label{
			Node:      vid,
			CenterIdx: int32(bestIdx),
			Center:    centers[bestIdx],
			TreeLabel: lbl,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Cluster (direct) entries: for each destination y, every x with
	// r(x,y) < r(y,A) stores the first hop of a shortest x->y path. A
	// member has d(x,y) <= r(x,y) < r(y,A), so a reverse Dijkstra that
	// settles only the ball around y holding the members gives each the
	// first hop a full run would. Each oracle shape gets its cheapest
	// plan: on the dense matrix, membership comes from resident rows and
	// the reverse run (for the first hops) settles only out to the
	// farthest member, for destinations with a non-empty cluster; on any
	// other oracle one reverse run per destination, out to r(y,A),
	// supplies both the d(·,y) distances and the first hops. One scratch
	// per worker; each run is consumed within its call.
	dense, isDense := m.(*graph.DenseMetric)
	scratch := make([]*graph.SSSPScratch, parallel.Workers(n, workers))
	members := make([][]graph.NodeID, n)
	ports := make([][]graph.PortID, n) // ports[y][i]: members[y][i]'s first hop
	err = parallel.ForEachWorker(n, workers, func(w, y int) error {
		if scratch[w] == nil {
			scratch[w] = graph.NewSSSPScratch(n)
		}
		radius := centerRadius[y]
		yid := graph.NodeID(y)
		var (
			toY []graph.Dist // d(·, y), exact at least within the ball
			rev graph.SSSP
		)
		if isDense {
			toY = dense.ToSink(yid)
		} else {
			rev = scratch[w].DijkstraRevWithin(g, yid, radius)
			toY = rev.Dist
		}
		fromY := m.FromSource(yid) // d(y, ·)
		var (
			mem   []graph.NodeID
			reach graph.Dist // max d(x, y) over members
		)
		for x := 0; x < n; x++ {
			if x != y && graph.RFromRows(fromY, toY, graph.NodeID(x)) < radius {
				mem = append(mem, graph.NodeID(x))
				reach = max(reach, toY[x])
			}
		}
		if len(mem) == 0 {
			return nil
		}
		if isDense {
			rev = scratch[w].DijkstraRevWithin(g, yid, reach+1)
		}
		ps := make([]graph.PortID, len(mem))
		for i, x := range mem {
			next := rev.Parent[x]
			port, ok := g.PortTo(x, next)
			if !ok {
				return fmt.Errorf("rtz: missing edge (%d,%d) for direct entry", x, next)
			}
			ps[i] = port
		}
		members[y], ports[y] = mem, ps
		return nil
	})
	if err != nil {
		return nil, err
	}
	for y, mem := range members {
		for i, x := range mem {
			s.Tables[x].Direct[graph.NodeID(y)] = ports[y][i]
		}
	}
	if retain != nil {
		retain.s = s
		retain.m = m
		retain.trees = trees
		retain.centerRadius = centerRadius
		retain.members = members
		if retain.scratch = scratch[0]; retain.scratch == nil {
			retain.scratch = graph.NewSSSPScratch(n)
		}
	}
	return s, nil
}

// AssembleScheme rebuilds a substrate from per-node state alone — the
// deployment/wire reassembly path. Tables and labels must be indexed by
// node; Centers is left empty (it is construction bookkeeping, not
// routing state).
func AssembleScheme(g *graph.Graph, tables []*Table, labels []Label) (*Scheme, error) {
	if len(tables) != g.N() || len(labels) != g.N() {
		return nil, fmt.Errorf("rtz: assembling over %d nodes needs %d tables and labels, got %d/%d",
			g.N(), g.N(), len(tables), len(labels))
	}
	return &Scheme{Tables: tables, Labels: labels, g: g}, nil
}

// LabelOf returns R3(v).
func (s *Scheme) LabelOf(v graph.NodeID) Label { return s.Labels[v] }

// Graph returns the network the scheme was built over (read-only for
// forwarding; plane compilation needs it to resolve ports).
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Forward is the local forwarding function: given only the node's table
// and the packet header it returns the outgoing port (mutating the
// header's phase), or delivered = true. It never consults global state.
func Forward(tab *Table, h *Header) (port graph.PortID, delivered bool, err error) {
	if tab.Self == h.Dest {
		return 0, true, nil
	}
	// A direct entry is always safe and optimal from here on: the cluster
	// is closed under shortest-path subpaths.
	if h.Phase == PhaseDirect {
		p, ok := tab.DirectPort(h.Dest)
		if !ok {
			return 0, false, fmt.Errorf("rtz: direct-phase packet for %d at %d with no entry (cluster closure violated)", h.Dest, tab.Self)
		}
		return p, false, nil
	}
	if p, ok := tab.DirectPort(h.Dest); ok {
		h.Phase = PhaseDirect
		return p, false, nil
	}
	if h.Phase == PhaseSeek {
		if tab.Self == h.Label.Center {
			h.Phase = PhaseDescend
		} else {
			return tab.InPorts[h.Label.CenterIdx], false, nil
		}
	}
	// Descend the center's out-tree toward the destination.
	st := tab.TreeStates[h.Label.CenterIdx]
	p, done, err := tree.NextPort(st, h.Label.TreeLabel)
	if err != nil {
		return 0, false, fmt.Errorf("rtz: descent at %d toward %d: %w", tab.Self, h.Dest, err)
	}
	if done {
		// The tree label addresses this node, so it must be the
		// destination — guarded above, defensive here.
		return 0, true, nil
	}
	return p, false, nil
}

// Route simulates the one-way route from src to the node addressed by
// lbl, returning the path weight and hop count. It drives Forward with
// node-local tables only; the graph is used solely to resolve ports, as
// the network fabric would.
func (s *Scheme) Route(src graph.NodeID, lbl Label) (graph.Dist, int, error) {
	h := &Header{Dest: lbl.Node, Label: lbl, Phase: PhaseSeek}
	cur := src
	var weight graph.Dist
	hops := 0
	maxHops := 4 * s.g.N()
	for {
		port, delivered, err := Forward(s.Tables[cur], h)
		if err != nil {
			return 0, 0, err
		}
		if delivered {
			return weight, hops, nil
		}
		e, ok := s.g.EdgeByPort(cur, port)
		if !ok {
			return 0, 0, fmt.Errorf("rtz: node %d has no port %d", cur, port)
		}
		weight += e.Weight
		cur = e.To
		if hops++; hops > maxHops {
			return 0, 0, fmt.Errorf("rtz: route %d->%d exceeded %d hops", src, lbl.Node, maxHops)
		}
	}
}

// Roundtrip simulates src -> dst -> src, carrying R3(src) on the forward
// leg as the paper's return-trip headers do. Returns total weight.
func (s *Scheme) Roundtrip(src, dst graph.NodeID) (graph.Dist, error) {
	out, _, err := s.Route(src, s.Labels[dst])
	if err != nil {
		return 0, err
	}
	back, _, err := s.Route(dst, s.Labels[src])
	if err != nil {
		return 0, err
	}
	return out + back, nil
}

// MaxTableWords returns the largest node table in words.
func (s *Scheme) MaxTableWords() int {
	m := 0
	for _, t := range s.Tables {
		if w := t.Words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords returns the mean node table size in words.
func (s *Scheme) AvgTableWords() float64 {
	total := 0
	for _, t := range s.Tables {
		total += t.Words()
	}
	return float64(total) / float64(len(s.Tables))
}
