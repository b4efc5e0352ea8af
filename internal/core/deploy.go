package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rtroute/internal/blocks"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtz"
	"rtroute/internal/sealed"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// This file is the per-node decomposition layer: every built scheme
// splits into one LocalState per node — only that node's tables — and a
// Deployment reassembles per-node Routers that forward purely from local
// state plus the arriving header. The portable LocalState structs are
// the schema the wire codec encodes; all slices are kept in a canonical
// sorted order so that encoding is deterministic (the golden-file tests
// lock this).

// Kind identifies a scheme on the wire and in a deployment.
type Kind uint8

const (
	// KindStretchSix is the §2 scheme (stretch 6, O~(sqrt n) tables).
	KindStretchSix Kind = 1
	// KindExStretch is the §3 exponential-tradeoff scheme.
	KindExStretch Kind = 2
	// KindPolynomial is the §4 polynomial-tradeoff scheme.
	KindPolynomial Kind = 3
	// KindRTZ is the name-dependent stretch-3 substrate plane.
	KindRTZ Kind = 4
	// KindHop is the Lemma 5 double-tree-cover substrate plane.
	KindHop Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindStretchSix:
		return "stretch6"
	case KindExStretch:
		return "exstretch"
	case KindPolynomial:
		return "polystretch"
	case KindRTZ:
		return "rtz"
	case KindHop:
		return "hop"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// S6Entry is one dictionary entry of the stretch-6 scheme: a TINN name
// and the topology-dependent address R3 it resolves to.
type S6Entry struct {
	Name  int32
	Label rtz.Label
}

// RTZDirect is one cluster (direct-routing) entry of a stretch-3 table.
type RTZDirect struct {
	Dst  graph.NodeID
	Port graph.PortID
}

// RTZTableLocal is one node's stretch-3 substrate table in portable
// form: per-center in-ports and tree states, plus the direct entries
// sorted by destination.
type RTZTableLocal struct {
	InPorts    []graph.PortID
	TreeStates []tree.State
	Direct     []RTZDirect
}

// S6Local is one node's complete StretchSix state (§2.1 items 1-4).
type S6Local struct {
	SelfName        int32
	OwnLabel        rtz.Label
	Entries         []S6Entry // items (1)+(3), sorted by Name
	BlockHolder     []int32   // item (2), indexed by block id, -1 = none
	NeighborEntries int32     // |item (1)|, for space accounting
	Tab3            RTZTableLocal
}

// RTZLocal is one node's state in a stretch-3 substrate plane: its table
// plus its own address (the deployment gathers the addresses into the
// injection directory).
type RTZLocal struct {
	SelfLabel rtz.Label
	Table     RTZTableLocal
}

// ExNeighbor is one (name, handshake) entry of an ExStretch table.
type ExNeighbor struct {
	Name int32
	HS   rtz.Handshake
}

// ExDictLocal is one prefix-advancing dictionary entry (item 3a).
type ExDictLocal struct {
	Level      int8
	Prefix     int32
	Tau        int32
	TargetName int32
	HS         rtz.Handshake
}

// HopEntryLocal is one double-tree membership entry of a hop table.
type HopEntryLocal struct {
	Ref    cover.TreeRef
	State  tree.State
	InPort graph.PortID
	IsRoot bool
}

// ExLocal is one node's complete ExStretch state (§3.3 items 1-3 plus
// the §3.5 global label).
type ExLocal struct {
	SelfName  int32
	Neighbors []ExNeighbor    // item (2), sorted by Name
	Dict      []ExDictLocal   // item (3a), sorted by (Level, Prefix, Tau)
	Full      []ExNeighbor    // item (3b), sorted by Name
	Global    []ExGlobal      // §3.5 per-level label, level order
	HopTab    []HopEntryLocal // item (1), sorted by Ref
}

// PolyDictLocal is one own-prefix dictionary entry of a §4 tree entry.
type PolyDictLocal struct {
	J     int8
	Tau   int32
	Name  int32
	Label tree.Label
}

// PolyTreeLocal is one node's state for one tree of the §4 hierarchy.
type PolyTreeLocal struct {
	Ref      cover.TreeRef
	State    tree.State
	InPort   graph.PortID
	IsRoot   bool
	OwnLabel tree.Label
	Dict     []PolyDictLocal // sorted by (J, Tau)
}

// PolyLocal is one node's complete PolynomialStretch state (§4.1).
type PolyLocal struct {
	SelfName int32
	Home     []cover.TreeRef // per level
	Trees    []PolyTreeLocal // sorted by Ref
}

// HopLocal is one node's state in a hop substrate plane.
type HopLocal struct {
	Members []HopMember // membership order: sorted by (level, index)
}

// LocalState is one node's complete routing state: exactly one of the
// kind-specific pointers is set. It is the unit the space bounds are
// certified over — everything a per-node Router forwards with, and
// everything the wire codec charges to the node.
type LocalState struct {
	Node graph.NodeID
	S6   *S6Local
	Ex   *ExLocal
	Poly *PolyLocal
	RTZ  *RTZLocal
	Hop  *HopLocal
}

// SchemeState is a fully decomposed scheme: the network fabric, the
// naming, the scheme's O(1) shared parameters, and one LocalState per
// node. It is the in-memory form of the wire format.
type SchemeState struct {
	Kind  Kind
	Graph *graph.Graph
	Names []int32 // Names[v] = TINN name of node v

	// O(1) shared parameters ("global knowledge" in the paper's sense,
	// like n itself). The base-q name universe is re-derived from
	// (n, K), never stored.
	K            int  // exstretch / poly tradeoff parameter
	Levels       int  // poly: scale-ladder length
	ViaSource    bool // stretch6 §2.2 variant
	DirectReturn bool // exstretch §3.5 variant
}

// Decompose splits a built plane into per-node local states plus O(1)
// shared parameters. It accepts the three TINN schemes, the two core
// substrate planes, and an already-assembled Deployment.
func Decompose(p sim.Plane) (*SchemeState, []LocalState, error) {
	switch s := p.(type) {
	case *StretchSix:
		return decomposeS6(s)
	case *ExStretch:
		return decomposeEx(s)
	case *PolynomialStretch:
		return decomposePoly(s)
	case *RTZPlane:
		return decomposeRTZ(s)
	case *HopPlane:
		return decomposeHop(s)
	case *Deployment:
		return Decompose(s.scheme)
	default:
		return nil, nil, fmt.Errorf("core: cannot decompose %T", p)
	}
}

func decomposeS6(s *StretchSix) (*SchemeState, []LocalState, error) {
	n := s.g.N()
	st := &SchemeState{Kind: KindStretchSix, Graph: s.g, Names: s.perm.Names, ViaSource: s.viaSource}
	locals := make([]LocalState, n)
	// Each node's decomposition reads only its own table: one per call.
	_ = parallel.ForEach(n, 0, func(v int) error {
		t := s.nodes[v]
		loc := &S6Local{
			SelfName:        t.selfName,
			OwnLabel:        t.ownLabel,
			BlockHolder:     append([]int32(nil), t.blockHolder...),
			NeighborEntries: int32(t.neighborEntries),
			Tab3:            rtzTableLocal(t.tab3),
		}
		loc.Entries = t.entries()
		locals[v] = LocalState{Node: graph.NodeID(v), S6: loc}
		return nil
	})
	return st, locals, nil
}

func rtzTableLocal(t *rtz.Table) RTZTableLocal {
	loc := RTZTableLocal{
		InPorts:    append([]graph.PortID(nil), t.InPorts...),
		TreeStates: append([]tree.State(nil), t.TreeStates...),
		Direct:     make([]RTZDirect, 0, t.DirectCount()),
	}
	t.DirectEntries(func(dst graph.NodeID, port graph.PortID) {
		loc.Direct = append(loc.Direct, RTZDirect{Dst: dst, Port: port})
	})
	slices.SortFunc(loc.Direct, func(a, b RTZDirect) int { return cmp.Compare(a.Dst, b.Dst) })
	return loc
}

func decomposeEx(s *ExStretch) (*SchemeState, []LocalState, error) {
	n := s.g.N()
	st := &SchemeState{Kind: KindExStretch, Graph: s.g, Names: s.perm.Names, K: s.k, DirectReturn: s.directReturn}
	locals := make([]LocalState, n)
	for v := 0; v < n; v++ {
		t := s.nodes[v]
		loc := &ExLocal{
			SelfName: t.selfName,
			Global:   append([]ExGlobal(nil), t.global...),
		}
		for nm, hs := range t.neighbors {
			loc.Neighbors = append(loc.Neighbors, ExNeighbor{Name: nm, HS: hs})
		}
		sort.Slice(loc.Neighbors, func(i, j int) bool { return loc.Neighbors[i].Name < loc.Neighbors[j].Name })
		for k, e := range t.dict {
			loc.Dict = append(loc.Dict, ExDictLocal{
				Level: k.Level, Prefix: k.Prefix, Tau: k.Tau,
				TargetName: e.TargetName, HS: e.HS,
			})
		}
		sort.Slice(loc.Dict, func(i, j int) bool {
			a, b := loc.Dict[i], loc.Dict[j]
			if a.Level != b.Level {
				return a.Level < b.Level
			}
			if a.Prefix != b.Prefix {
				return a.Prefix < b.Prefix
			}
			return a.Tau < b.Tau
		})
		for nm, hs := range t.full {
			loc.Full = append(loc.Full, ExNeighbor{Name: nm, HS: hs})
		}
		sort.Slice(loc.Full, func(i, j int) bool { return loc.Full[i].Name < loc.Full[j].Name })
		loc.HopTab = hopEntriesLocal(t.hopTab)
		locals[v] = LocalState{Node: graph.NodeID(v), Ex: loc}
	}
	return st, locals, nil
}

func hopEntriesLocal(t *rtz.HopTable) []HopEntryLocal {
	out := make([]HopEntryLocal, 0, len(t.Trees))
	for ref, e := range t.Trees {
		out = append(out, HopEntryLocal{Ref: ref, State: e.State, InPort: e.InPort, IsRoot: e.IsRoot})
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i].Ref, out[j].Ref) })
	return out
}

func decomposePoly(s *PolynomialStretch) (*SchemeState, []LocalState, error) {
	n := s.g.N()
	st := &SchemeState{Kind: KindPolynomial, Graph: s.g, Names: s.perm.Names, K: s.k, Levels: s.levels}
	locals := make([]LocalState, n)
	for v := 0; v < n; v++ {
		t := s.nodes[v]
		loc := &PolyLocal{
			SelfName: t.selfName,
			Home:     append([]cover.TreeRef(nil), t.home...),
		}
		for ref, e := range t.trees {
			te := PolyTreeLocal{
				Ref: ref, State: e.state, InPort: e.inPort, IsRoot: e.isRoot, OwnLabel: e.ownLabel,
			}
			for k, d := range e.dict {
				te.Dict = append(te.Dict, PolyDictLocal{J: k.J, Tau: k.Tau, Name: d.Name, Label: d.Label})
			}
			sort.Slice(te.Dict, func(i, j int) bool {
				a, b := te.Dict[i], te.Dict[j]
				if a.J != b.J {
					return a.J < b.J
				}
				return a.Tau < b.Tau
			})
			loc.Trees = append(loc.Trees, te)
		}
		sort.Slice(loc.Trees, func(i, j int) bool { return refLess(loc.Trees[i].Ref, loc.Trees[j].Ref) })
		locals[v] = LocalState{Node: graph.NodeID(v), Poly: loc}
	}
	return st, locals, nil
}

func decomposeRTZ(p *RTZPlane) (*SchemeState, []LocalState, error) {
	g := p.sub.Graph()
	n := g.N()
	st := &SchemeState{Kind: KindRTZ, Graph: g, Names: p.perm.Names}
	locals := make([]LocalState, n)
	for v := 0; v < n; v++ {
		locals[v] = LocalState{Node: graph.NodeID(v), RTZ: &RTZLocal{
			SelfLabel: p.sub.Labels[v],
			Table:     rtzTableLocal(p.sub.Tables[v]),
		}}
	}
	return st, locals, nil
}

func decomposeHop(p *HopPlane) (*SchemeState, []LocalState, error) {
	n := p.g.N()
	st := &SchemeState{Kind: KindHop, Graph: p.g, Names: p.perm.Names}
	locals := make([]LocalState, n)
	for v := 0; v < n; v++ {
		locals[v] = LocalState{Node: graph.NodeID(v), Hop: &HopLocal{
			Members: append([]HopMember(nil), p.members[v]...),
		}}
	}
	return st, locals, nil
}

// Assemble reconstructs a Deployment from a decomposed scheme: per-node
// Routers over the reassembled tables, route-identical to the scheme the
// state was decomposed from.
func Assemble(st *SchemeState, locals []LocalState) (*Deployment, error) {
	if st.Graph == nil {
		return nil, fmt.Errorf("core: assemble: nil graph")
	}
	n := st.Graph.N()
	if n < 2 {
		return nil, fmt.Errorf("core: assemble: need at least 2 nodes, got %d", n)
	}
	if len(locals) != n {
		return nil, fmt.Errorf("core: assemble: %d nodes but %d local states", n, len(locals))
	}
	perm, err := names.NewPermutation(st.Names)
	if err != nil {
		return nil, fmt.Errorf("core: assemble: %w", err)
	}
	var scheme Scheme
	switch st.Kind {
	case KindStretchSix:
		scheme, err = assembleS6(st, perm, locals)
	case KindExStretch:
		scheme, err = assembleEx(st, perm, locals)
	case KindPolynomial:
		scheme, err = assemblePoly(st, perm, locals)
	case KindRTZ:
		scheme, err = assembleRTZ(st, perm, locals)
	case KindHop:
		scheme, err = assembleHop(st, perm, locals)
	default:
		return nil, fmt.Errorf("core: assemble: unknown kind %v", st.Kind)
	}
	if err != nil {
		return nil, err
	}
	return NewDeployment(scheme, st.Kind), nil
}

func localKindErr(v int, want Kind) error {
	return fmt.Errorf("core: assemble: node %d local state is not %v state", v, want)
}

func assembleRTZTable(self graph.NodeID, loc *RTZTableLocal, centers, n int) (*rtz.Table, error) {
	if len(loc.InPorts) != len(loc.TreeStates) {
		return nil, fmt.Errorf("core: assemble: node %d has %d in-ports but %d tree states",
			self, len(loc.InPorts), len(loc.TreeStates))
	}
	if centers >= 0 && len(loc.InPorts) != centers {
		return nil, fmt.Errorf("core: assemble: node %d covers %d centers, want %d", self, len(loc.InPorts), centers)
	}
	t := &rtz.Table{
		Self:       self,
		InPorts:    append([]graph.PortID(nil), loc.InPorts...),
		TreeStates: append([]tree.State(nil), loc.TreeStates...),
		Direct:     make(map[graph.NodeID]graph.PortID, len(loc.Direct)),
	}
	for _, d := range loc.Direct {
		if d.Dst < 0 || int(d.Dst) >= n {
			return nil, fmt.Errorf("core: assemble: node %d has a direct entry for node %d outside [0,%d)", self, d.Dst, n)
		}
		t.Direct[d.Dst] = d.Port
	}
	t.Seal()
	return t, nil
}

func assembleS6(st *SchemeState, perm *names.Permutation, locals []LocalState) (Scheme, error) {
	n := st.Graph.N()
	uni := blocks.NewUniverse(n, 2)
	s := &StretchSix{g: st.Graph, perm: perm, uni: uni, viaSource: st.ViaSource, nodes: make([]*s6Table, n)}
	// Every node must cover node 0's center count. Nodes assemble in
	// parallel; ForEach reports the lowest failing node, as a loop would.
	centers := -1
	if loc := locals[0].S6; loc != nil {
		centers = len(loc.Tab3.InPorts)
	}
	err := parallel.ForEach(n, 0, func(v int) error {
		loc := locals[v].S6
		if loc == nil {
			return localKindErr(v, KindStretchSix)
		}
		if len(loc.BlockHolder) != uni.NumBlocks() {
			return fmt.Errorf("core: assemble: node %d has %d block holders, universe has %d blocks",
				v, len(loc.BlockHolder), uni.NumBlocks())
		}
		tab3, err := assembleRTZTable(graph.NodeID(v), &loc.Tab3, centers, n)
		if err != nil {
			return err
		}
		for _, e := range loc.Entries {
			if e.Name < 0 || int(e.Name) >= n {
				return fmt.Errorf("core: assemble: node %d has a dictionary entry for name %d outside [0,%d)", v, e.Name, n)
			}
		}
		s.nodes[v] = &s6Table{
			selfName: loc.SelfName,
			ownLabel: loc.OwnLabel,
			lbl: sealed.CompileEach(len(loc.Entries), func(i int) (int32, rtz.Label) {
				return loc.Entries[i].Name, loc.Entries[i].Label
			}),
			blockHolder:     append([]int32(nil), loc.BlockHolder...),
			tab3:            tab3,
			neighborEntries: int(loc.NeighborEntries),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func assembleEx(st *SchemeState, perm *names.Permutation, locals []LocalState) (Scheme, error) {
	n := st.Graph.N()
	if st.K < 2 {
		return nil, fmt.Errorf("core: assemble: exstretch needs K >= 2, got %d", st.K)
	}
	s := &ExStretch{
		g: st.Graph, perm: perm, uni: blocks.NewUniverse(n, st.K),
		k: st.K, directReturn: st.DirectReturn, nodes: make([]*exTable, n),
	}
	for v := 0; v < n; v++ {
		loc := locals[v].Ex
		if loc == nil {
			return nil, localKindErr(v, KindExStretch)
		}
		tab := &exTable{
			selfName:  loc.SelfName,
			neighbors: make(map[int32]rtz.Handshake, len(loc.Neighbors)),
			dict:      make(map[exDictKey]exDictEntry, len(loc.Dict)),
			full:      make(map[int32]rtz.Handshake, len(loc.Full)),
			hopTab:    assembleHopTable(graph.NodeID(v), loc.HopTab),
			global:    append([]ExGlobal(nil), loc.Global...),
		}
		for _, e := range loc.Neighbors {
			tab.neighbors[e.Name] = e.HS
		}
		for _, e := range loc.Dict {
			tab.dict[exDictKey{Level: e.Level, Prefix: e.Prefix, Tau: e.Tau}] =
				exDictEntry{TargetName: e.TargetName, HS: e.HS}
		}
		for _, e := range loc.Full {
			tab.full[e.Name] = e.HS
		}
		s.nodes[v] = tab
	}
	return s, nil
}

func assembleHopTable(self graph.NodeID, entries []HopEntryLocal) *rtz.HopTable {
	t := &rtz.HopTable{Self: self, Trees: make(map[cover.TreeRef]rtz.HopEntry, len(entries))}
	for _, e := range entries {
		t.Trees[e.Ref] = rtz.HopEntry{State: e.State, InPort: e.InPort, IsRoot: e.IsRoot}
	}
	return t
}

func assemblePoly(st *SchemeState, perm *names.Permutation, locals []LocalState) (Scheme, error) {
	n := st.Graph.N()
	if st.K < 2 {
		return nil, fmt.Errorf("core: assemble: polystretch needs K >= 2, got %d", st.K)
	}
	if st.Levels < 1 {
		return nil, fmt.Errorf("core: assemble: polystretch needs >= 1 level, got %d", st.Levels)
	}
	s := &PolynomialStretch{
		g: st.Graph, perm: perm, uni: blocks.NewUniverse(n, st.K),
		k: st.K, levels: st.Levels, nodes: make([]*polyTable, n),
	}
	for v := 0; v < n; v++ {
		loc := locals[v].Poly
		if loc == nil {
			return nil, localKindErr(v, KindPolynomial)
		}
		if len(loc.Home) != st.Levels {
			return nil, fmt.Errorf("core: assemble: node %d has %d home trees, ladder has %d levels",
				v, len(loc.Home), st.Levels)
		}
		tab := &polyTable{
			selfName: loc.SelfName,
			trees:    make(map[cover.TreeRef]*polyTreeEntry, len(loc.Trees)),
			home:     append([]cover.TreeRef(nil), loc.Home...),
		}
		for _, te := range loc.Trees {
			e := &polyTreeEntry{
				state: te.State, inPort: te.InPort, isRoot: te.IsRoot, ownLabel: te.OwnLabel,
				dict: make(map[polyDictKey]polyDictEntry, len(te.Dict)),
			}
			for _, d := range te.Dict {
				e.dict[polyDictKey{J: d.J, Tau: d.Tau}] = polyDictEntry{Name: d.Name, Label: d.Label}
			}
			tab.trees[te.Ref] = e
		}
		s.nodes[v] = tab
	}
	return s, nil
}

func assembleRTZ(st *SchemeState, perm *names.Permutation, locals []LocalState) (Scheme, error) {
	n := st.Graph.N()
	tables := make([]*rtz.Table, n)
	labels := make([]rtz.Label, n)
	centers := -1
	for v := 0; v < n; v++ {
		loc := locals[v].RTZ
		if loc == nil {
			return nil, localKindErr(v, KindRTZ)
		}
		t, err := assembleRTZTable(graph.NodeID(v), &loc.Table, centers, n)
		if err != nil {
			return nil, err
		}
		centers = len(t.InPorts)
		tables[v] = t
		labels[v] = loc.SelfLabel
	}
	sub, err := rtz.AssembleScheme(st.Graph, tables, labels)
	if err != nil {
		return nil, err
	}
	return NewRTZPlane(sub, perm)
}

func assembleHop(st *SchemeState, perm *names.Permutation, locals []LocalState) (Scheme, error) {
	n := st.Graph.N()
	tables := make([]*rtz.HopTable, n)
	members := make([][]HopMember, n)
	for v := 0; v < n; v++ {
		loc := locals[v].Hop
		if loc == nil {
			return nil, localKindErr(v, KindHop)
		}
		ms := append([]HopMember(nil), loc.Members...)
		t := &rtz.HopTable{Self: graph.NodeID(v), Trees: make(map[cover.TreeRef]rtz.HopEntry, len(ms))}
		for _, m := range ms {
			t.Trees[m.Ref] = rtz.HopEntry{State: m.State, InPort: m.InPort, IsRoot: m.IsRoot}
		}
		tables[v] = t
		members[v] = ms
	}
	return AssembleHopPlane(st.Graph, perm, tables, members)
}

// Router is one node's forwarding agent in a Deployment: it forwards
// packets using only its own node's local state plus the arriving
// header — the paper's F(table(x), header(P)) with x fixed.
type Router struct {
	node graph.NodeID
	fwd  sim.Forwarder
}

// Node returns the node this router serves.
func (r *Router) Node() graph.NodeID { return r.node }

// Forward applies the node-local forwarding function to an arriving
// packet header.
func (r *Router) Forward(h sim.Header) (port graph.PortID, delivered bool, err error) {
	return r.fwd.Forward(r.node, h)
}

// Deployment is a scheme reassembled as per-node Routers. It implements
// sim.Plane — the sequential tracer and the concurrent traffic engine
// drive it exactly like a monolithic scheme — but every Forward is
// dispatched through the addressed node's Router. Header injection
// (NewHeader/BeginReturn) delegates to the assembled scheme, which holds
// only the deployment-wide shared state the model grants sources (the
// naming and, for the name-dependent substrates, the address directory
// gathered from the nodes' own labels).
type Deployment struct {
	kind      Kind
	scheme    Scheme
	routers   []Router
	nodeBytes []int // per-node wire bytes, set when restored from a snapshot
}

var _ Scheme = (*Deployment)(nil)

// NewDeployment wraps an assembled scheme into per-node routers.
func NewDeployment(s Scheme, kind Kind) *Deployment {
	n := s.Graph().N()
	d := &Deployment{kind: kind, scheme: s, routers: make([]Router, n)}
	for v := 0; v < n; v++ {
		d.routers[v] = Router{node: graph.NodeID(v), fwd: s}
	}
	return d
}

// Rebind repoints the deployment at a rebuilt scheme without replacing
// the Deployment value its callers hold: the scheme pointer and every
// per-node router's forwarder are swapped in place. The cluster's churn
// repair path uses this for kinds with no incremental maintainer — the
// shard rebuilds the plane from scratch and rebinds under its epoch
// fence, so views and stats wired to the Deployment stay attached.
func (d *Deployment) Rebind(s Scheme) {
	d.scheme = s
	for v := range d.routers {
		d.routers[v].fwd = s
	}
}

// Deploy decomposes a built scheme into per-node local states and
// reassembles them as a Deployment — the in-process equivalent of a
// marshal/unmarshal roundtrip, certifying that per-node state suffices.
func Deploy(p sim.Plane) (*Deployment, error) {
	st, locals, err := Decompose(p)
	if err != nil {
		return nil, err
	}
	return Assemble(st, locals)
}

// Kind returns the deployed scheme kind.
func (d *Deployment) Kind() Kind { return d.kind }

// Router returns node v's forwarding agent.
func (d *Deployment) Router(v graph.NodeID) *Router { return &d.routers[v] }

// Routers returns all per-node routers; callers must not modify the
// slice.
func (d *Deployment) Routers() []Router { return d.routers }

// Scheme returns the assembled scheme backing the routers.
func (d *Deployment) Scheme() Scheme { return d.scheme }

// Flatten returns the assembled scheme as a serving plane with the
// per-hop router indirection removed: Router(v).Forward(h) is by
// construction Scheme().Forward(v, h), so a compiler of planes (the
// traffic engine's Compile) may substitute the scheme on the hot path
// without changing a single route. Tracing through the Deployment
// itself still dispatches hop by hop through the routers.
func (d *Deployment) Flatten() sim.Plane { return d.scheme }

// Naming returns the deployment's name permutation.
func (d *Deployment) Naming() *names.Permutation {
	switch s := d.scheme.(type) {
	case *StretchSix:
		return s.perm
	case *ExStretch:
		return s.perm
	case *PolynomialStretch:
		return s.perm
	case *RTZPlane:
		return s.perm
	case *HopPlane:
		return s.perm
	default:
		return nil
	}
}

// SetEncodedSizes records the per-node wire sizes (bytes); the codec
// calls this when a deployment is restored from or measured against a
// snapshot.
func (d *Deployment) SetEncodedSizes(sizes []int) { d.nodeBytes = sizes }

// EncodedSize returns node v's table size in wire bytes — the empirical
// Theorem 6/11 space bound — or -1 when the deployment was assembled
// in-process without going through the codec.
func (d *Deployment) EncodedSize(v graph.NodeID) int {
	if d.nodeBytes == nil {
		return -1
	}
	return d.nodeBytes[v]
}

// Forward implements sim.Forwarder by dispatching to the addressed
// node's Router.
func (d *Deployment) Forward(at graph.NodeID, h sim.Header) (graph.PortID, bool, error) {
	if at < 0 || int(at) >= len(d.routers) {
		return 0, false, fmt.Errorf("core: deployment has no router for node %d", at)
	}
	r := &d.routers[at]
	return r.fwd.Forward(r.node, h)
}

// NewHeader implements sim.Plane.
func (d *Deployment) NewHeader(srcName, dstName int32) (sim.Header, error) {
	return d.scheme.NewHeader(srcName, dstName)
}

// ResetHeader implements sim.Plane.
func (d *Deployment) ResetHeader(h sim.Header, srcName, dstName int32) error {
	return d.scheme.ResetHeader(h, srcName, dstName)
}

// BeginReturn implements sim.Plane.
func (d *Deployment) BeginReturn(h sim.Header) error { return d.scheme.BeginReturn(h) }

// NodeOf implements sim.Plane.
func (d *Deployment) NodeOf(name int32) graph.NodeID { return d.scheme.NodeOf(name) }

// Graph implements sim.Plane.
func (d *Deployment) Graph() *graph.Graph { return d.scheme.Graph() }

// SchemeName implements Scheme. The name matches the monolithic
// scheme's, so measurement reports compare line for line.
func (d *Deployment) SchemeName() string { return d.scheme.SchemeName() }

// Roundtrip implements Scheme — routed through the per-node routers.
func (d *Deployment) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(d, srcName, dstName, 0)
}

// MaxTableWords implements Scheme.
func (d *Deployment) MaxTableWords() int { return d.scheme.MaxTableWords() }

// AvgTableWords implements Scheme.
func (d *Deployment) AvgTableWords() float64 { return d.scheme.AvgTableWords() }
