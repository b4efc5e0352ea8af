package core

import (
	"fmt"

	"rtroute/internal/blocks"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtmetric"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// PolynomialStretch is the §4 scheme (Figs. 9 and 11): the polynomial
// stretch/space tradeoff built on the Theorem 13 double-tree cover
// hierarchy. Routing searches the source's home double-tree at
// exponentially increasing scales; within a tree the packet prefix-
// matches the destination name through a series of waypoints, always
// relaying through the tree's center; failure (a missing dictionary
// entry) sends it back to the source, which escalates one level.
//
// Per-node storage (§4.1), for every level and every double-tree C the
// node belongs to: its O(1) tree-routing state, its own label
// TreeR(C,u), the first link toward the center, and for every
// (j < k, τ ∈ Σ) the label of the nearest node in C matching u's own
// name on the first j digits and continuing with τ.
type PolynomialStretch struct {
	g    *graph.Graph
	perm *names.Permutation
	hier *cover.Hierarchy // nil on an assembled Deployment; forwarding never consults it
	uni  blocks.Universe
	k    int
	// levels is the length of the scale ladder, kept as a plain count so
	// that escalation works from per-node state alone (the hierarchy
	// itself is not part of any node's local routing state).
	levels int

	nodes []*polyTable
}

type polyDictKey struct {
	J   int8
	Tau int32
}

type polyDictEntry struct {
	Name  int32
	Label tree.Label
}

type polyTreeEntry struct {
	state    tree.State
	inPort   graph.PortID
	isRoot   bool
	ownLabel tree.Label
	dict     map[polyDictKey]polyDictEntry
}

type polyTable struct {
	selfName int32
	trees    map[cover.TreeRef]*polyTreeEntry
	home     []cover.TreeRef // per level
}

func (t *polyTable) words() int {
	w := 1 + 2*len(t.home)
	for _, e := range t.trees {
		w += 6 + e.ownLabel.Words()
		for _, d := range e.dict {
			w += 3 + d.Label.Words()
		}
	}
	return w
}

// PolyHeader is the packet header of Fig. 11.
type PolyHeader struct {
	Mode             Mode
	DestName         int32
	SrcName          int32
	Level            int32
	Found            bool
	Ref              cover.TreeRef
	SourceLabel      tree.Label
	NextWaypointName int32
	Target           tree.Label
	Descending       bool
}

// Words implements sim.Header.
func (h *PolyHeader) Words() int {
	return 8 + h.SourceLabel.Words() + h.Target.Words()
}

var _ sim.Header = (*PolyHeader)(nil)
var _ sim.Forwarder = (*PolynomialStretch)(nil)
var _ Scheme = (*PolynomialStretch)(nil)

// PolyConfig tunes construction.
type PolyConfig struct {
	// K is the tradeoff parameter (both the cover parameter and the
	// name word length); >= 2.
	K int
	// ScaleBase is the level ladder ratio (the paper uses 2).
	ScaleBase float64
	// Variant selects the cover construction (default Awerbuch–Peleg;
	// the §4.4 discussion explains why ball-growing weakens the scheme).
	Variant cover.Variant
	// BuildWorkers is the worker count of the Init-order fill and the
	// per-node table build (0 = GOMAXPROCS, 1 = sequential). Output is
	// identical for every value.
	BuildWorkers int
}

// NewPolynomialStretch builds the scheme. m may be any distance oracle.
func NewPolynomialStretch(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, cfg PolyConfig) (*PolynomialStretch, error) {
	n := g.N()
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: polynomial stretch needs K >= 2, got %d", cfg.K)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: polynomial stretch needs at least 2 nodes, got %d", n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, graph has %d", perm.N(), n)
	}
	base := cfg.ScaleBase
	if base <= 1 {
		base = 2
	}
	hier, err := cover.BuildHierarchy(g, m, cfg.K, base, cfg.Variant)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchy: %w", err)
	}
	space := rtmetric.New(g, m, perm.Names)
	uni := blocks.NewUniverse(n, cfg.K)

	s := &PolynomialStretch{g: g, perm: perm, hier: hier, uni: uni, k: cfg.K, levels: len(hier.Levels), nodes: make([]*polyTable, n)}
	space.Precompute(n, cfg.BuildWorkers)
	err = parallel.ForEach(n, cfg.BuildWorkers, func(u int) error {
		tab := &polyTable{
			selfName: perm.Name(int32(u)),
			trees:    make(map[cover.TreeRef]*polyTreeEntry),
			home:     make([]cover.TreeRef, len(hier.Levels)),
		}
		for li, lvl := range hier.Levels {
			tab.home[li] = cover.TreeRef{Level: int32(li), Index: lvl.Cover.Home[u]}
		}
		initOrder := space.Init(graph.NodeID(u))
		for _, ref := range hier.Memberships(graph.NodeID(u)) {
			tr := hier.Tree(ref)
			st, _ := tr.State(graph.NodeID(u))
			own, _ := tr.LabelOf(graph.NodeID(u))
			e := &polyTreeEntry{
				state:    st,
				isRoot:   tr.Root == graph.NodeID(u),
				ownLabel: own,
				dict:     make(map[polyDictKey]polyDictEntry),
			}
			if !e.isRoot {
				p, ok := tr.InPort(graph.NodeID(u))
				if !ok {
					return fmt.Errorf("core: tree %v lacks in-port for %d", ref, u)
				}
				e.inPort = p
			}
			// Dictionary (c): nearest member matching own-name prefix j
			// and continuing with τ.
			selfName := perm.Name(int32(u))
			for j := 0; j < cfg.K; j++ {
				myPrefix := uni.Prefix(selfName, j)
				for tau := int32(0); tau < int32(uni.Q); tau++ {
					wantPrefix := myPrefix*int32(uni.Q) + tau
					for _, w := range initOrder {
						if w == graph.NodeID(u) || !tr.Contains(w) {
							continue
						}
						if uni.Prefix(perm.Name(int32(w)), j+1) == wantPrefix {
							lbl, _ := tr.LabelOf(w)
							e.dict[polyDictKey{J: int8(j), Tau: tau}] = polyDictEntry{
								Name:  perm.Name(int32(w)),
								Label: lbl,
							}
							break
						}
					}
				}
			}
			tab.trees[ref] = e
		}
		s.nodes[u] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SchemeName implements Scheme.
func (s *PolynomialStretch) SchemeName() string { return fmt.Sprintf("polystretch(k=%d)", s.k) }

// computeNext implements NextNode (§4.2) at the current node, escalating
// levels at the source when the current tree has no matching entry.
func (s *PolynomialStretch) computeNext(tab *polyTable, h *PolyHeader) error {
	for {
		e, ok := tab.trees[h.Ref]
		if !ok {
			return fmt.Errorf("core: node %d outside its routing tree %v", tab.selfName, h.Ref)
		}
		matched := s.uni.MatchLen(tab.selfName, h.DestName)
		key := polyDictKey{J: int8(matched), Tau: s.uni.Prefix(h.DestName, matched+1) % int32(s.uni.Q)}
		if d, ok := e.dict[key]; ok {
			h.NextWaypointName = d.Name
			h.Target = d.Label
			h.Descending = false
			return nil
		}
		// Failure in this tree.
		if tab.selfName != h.SrcName {
			// Send the packet home; the source will escalate.
			h.NextWaypointName = h.SrcName
			h.Target = h.SourceLabel
			h.Descending = false
			return nil
		}
		// At the source: escalate to the next level's home tree.
		if err := s.escalate(tab, h); err != nil {
			return err
		}
	}
}

// escalate moves the search to the source's home tree one level up
// (Fig. 11's "Level <- Level * 2" step on the scale ladder).
func (s *PolynomialStretch) escalate(tab *polyTable, h *PolyHeader) error {
	if int(h.Level)+1 >= s.levels {
		return fmt.Errorf("core: level ladder exhausted routing %d -> %d", h.SrcName, h.DestName)
	}
	h.Level++
	h.Ref = tab.home[h.Level]
	he, ok := tab.trees[h.Ref]
	if !ok {
		return fmt.Errorf("core: source %d missing home tree %v", tab.selfName, h.Ref)
	}
	h.SourceLabel = he.ownLabel
	return nil
}

// Forward implements the Fig. 11 local routing algorithm.
func (s *PolynomialStretch) Forward(at graph.NodeID, header sim.Header) (graph.PortID, bool, error) {
	h, ok := header.(*PolyHeader)
	if !ok {
		return 0, false, fmt.Errorf("core: polystretch got %T header", header)
	}
	tab := s.nodes[at]
	nx := tab.selfName

	switch h.Mode {
	case ModeNewPacket:
		h.Mode = ModeOutbound
		h.SrcName = nx
		h.Level = 0
		if h.DestName == nx {
			return 0, true, nil
		}
		h.Ref = tab.home[0]
		he, ok := tab.trees[h.Ref]
		if !ok {
			return 0, false, fmt.Errorf("core: source %d missing home tree %v", nx, h.Ref)
		}
		h.SourceLabel = he.ownLabel
		if err := s.computeNext(tab, h); err != nil {
			return 0, false, err
		}

	case ModeOutbound:
		if nx == h.DestName {
			// t is always safe to deliver at: it is a member of the
			// current tree whenever the packet reaches it inside that
			// tree, and the return routes within the same tree.
			return 0, true, nil
		}
		if nx == h.NextWaypointName {
			if nx == h.SrcName {
				// A failure return just completed: the current tree is
				// exhausted, so escalate before searching again.
				if err := s.escalate(tab, h); err != nil {
					return 0, false, err
				}
			}
			if err := s.computeNext(tab, h); err != nil {
				return 0, false, err
			}
		}

	case ModeReturnPacket:
		h.Mode = ModeInbound
		h.Found = true
		if nx == h.SrcName {
			return 0, true, nil
		}
		h.NextWaypointName = h.SrcName
		h.Target = h.SourceLabel
		h.Descending = false

	case ModeInbound:
		if nx == h.SrcName {
			return 0, true, nil
		}

	default:
		return 0, false, fmt.Errorf("core: invalid mode %v", h.Mode)
	}

	// Forward within the current tree: climb to the root, then descend.
	e, ok := tab.trees[h.Ref]
	if !ok {
		return 0, false, fmt.Errorf("core: node %d outside tree %v mid-route", nx, h.Ref)
	}
	if !h.Descending {
		if e.isRoot {
			h.Descending = true
		} else {
			return e.inPort, false, nil
		}
	}
	port, delivered, err := tree.NextPort(e.state, h.Target)
	if err != nil {
		return 0, false, fmt.Errorf("core: descent at %d: %w", nx, err)
	}
	if delivered {
		return 0, false, fmt.Errorf("core: tree leg delivered at %d without waypoint match", nx)
	}
	return port, false, nil
}

// NewHeader implements sim.Plane.
func (s *PolynomialStretch) NewHeader(srcName, dstName int32) (sim.Header, error) {
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return nil, fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	return &PolyHeader{Mode: ModeNewPacket, DestName: dstName}, nil
}

// ResetHeader implements sim.Plane: rewrite an earlier header in place
// into a fresh Fig. 11 outbound header, allocating nothing.
func (s *PolynomialStretch) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*PolyHeader)
	if !ok {
		return fmt.Errorf("core: polystretch got %T header", h)
	}
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	*hh = PolyHeader{Mode: ModeNewPacket, DestName: dstName}
	return nil
}

// BeginReturn implements sim.Plane.
func (s *PolynomialStretch) BeginReturn(h sim.Header) error {
	hh, ok := h.(*PolyHeader)
	if !ok {
		return fmt.Errorf("core: polystretch got %T header", h)
	}
	hh.Mode = ModeReturnPacket
	return nil
}

// NodeOf implements sim.Plane.
func (s *PolynomialStretch) NodeOf(name int32) graph.NodeID {
	return graph.NodeID(s.perm.Node(name))
}

// Graph implements sim.Plane.
func (s *PolynomialStretch) Graph() *graph.Graph { return s.g }

// Roundtrip implements Scheme.
func (s *PolynomialStretch) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(s, srcName, dstName, 0)
}

// K returns the tradeoff parameter.
func (s *PolynomialStretch) K() int { return s.k }

// HomeTreeRoot returns the name of the center of srcName's home
// double-tree at the given level — the relay node of Fig. 10.
func (s *PolynomialStretch) HomeTreeRoot(srcName int32, level int) (int32, error) {
	if s.hier == nil {
		return 0, fmt.Errorf("core: HomeTreeRoot unavailable on an assembled deployment (hierarchy not part of local state)")
	}
	if level < 0 || level >= len(s.hier.Levels) {
		return 0, fmt.Errorf("core: level %d outside ladder of %d", level, len(s.hier.Levels))
	}
	v := graph.NodeID(s.perm.Node(srcName))
	ref := s.nodes[v].home[level]
	return s.perm.Name(int32(s.hier.Tree(ref).Root)), nil
}

// Levels returns the number of levels in the hierarchy.
func (s *PolynomialStretch) Levels() int { return s.levels }

// MaxTableWords implements Scheme.
func (s *PolynomialStretch) MaxTableWords() int {
	m := 0
	for _, t := range s.nodes {
		if w := t.words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords implements Scheme.
func (s *PolynomialStretch) AvgTableWords() float64 {
	total := 0
	for _, t := range s.nodes {
		total += t.words()
	}
	return float64(total) / float64(len(s.nodes))
}
