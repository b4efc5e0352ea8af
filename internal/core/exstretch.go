package core

import (
	"fmt"
	"math/rand"

	"rtroute/internal/blocks"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// ExStretch is the §3 scheme (Figs. 4 and 6): the exponential
// stretch/space tradeoff. A packet visits waypoints s = v_0, v_1, ...,
// v_k = t where each v_i holds a block whose prefix matches the first i
// digits of the destination name; each leg is routed with the
// name-dependent handshake R2(v_i, v_i+1) through a shared double-tree
// ("Hop"), and the return trip pops the handshake stack.
//
// Per-node storage (§3.3):
//  1. the hop substrate's table Tab(u);
//  2. for every v in N_1(u): (name(v), R2(u,v));
//  3. for every block in S'_u = S_u ∪ {own block}:
//     (a) for every level i < k-1 and digit τ: R2(u,v) for the
//     Init_u-nearest v holding a block matching σ^i and continuing
//     with τ — indexed here by (i, σ^i value, τ), which deduplicates
//     blocks sharing a prefix;
//     (b) for every name j in the block: R2(u, node named j).
type ExStretch struct {
	g            *graph.Graph
	perm         *names.Permutation
	hop          *rtz.HopScheme
	uni          blocks.Universe
	assign       *blocks.Assignment
	k            int
	directReturn bool

	nodes []*exTable
}

// ExGlobal is one level of a node's globally valid label: its home
// double-tree and its address within it (DirectReturn variant).
type ExGlobal struct {
	Ref   cover.TreeRef
	Label tree.Label
}

type exDictKey struct {
	Level  int8
	Prefix int32
	Tau    int32
}

type exDictEntry struct {
	TargetName int32
	HS         rtz.Handshake
}

type exTable struct {
	selfName int32
	// neighbors is storage item (2): name -> handshake.
	neighbors map[int32]rtz.Handshake
	// dict is storage item (3a).
	dict map[exDictKey]exDictEntry
	// full is storage item (3b): names covered by held blocks.
	full map[int32]rtz.Handshake
	// hopTab is storage item (1).
	hopTab *rtz.HopTable
	// global is the node's own globally valid label, present only in the
	// DirectReturn variant (the "second set of routing tables" of §3.5).
	global []ExGlobal
}

func (t *exTable) words() int {
	w := 1 + t.hopTab.Words()
	for _, hs := range t.neighbors {
		w += 1 + hs.Words()
	}
	for _, e := range t.dict {
		w += 4 + e.HS.Words()
	}
	for _, hs := range t.full {
		w += 1 + hs.Words()
	}
	for _, g := range t.global {
		w += 2 + g.Label.Words()
	}
	return w
}

// ExWaypoint is one stack record: the waypoint we departed from and the
// handshake used, so the return trip can retrace it.
type ExWaypoint struct {
	Name int32
	HS   rtz.Handshake
}

// ExHeader is the packet header of Fig. 6.
type ExHeader struct {
	Mode             Mode
	DestName         int32
	SrcName          int32
	Hop              int8
	NextWaypointName int32
	Stack            []ExWaypoint
	Global           []ExGlobal // source's global label (DirectReturn)
	Leg              rtz.HopHeader
	LegSet           bool
}

// Words implements sim.Header. The stack holds at most k handshakes:
// o(k log^2 n) bits as Theorem 9 states. The DirectReturn variant trades
// the stack for the per-level global label.
func (h *ExHeader) Words() int {
	w := 5 + h.Leg.Words()
	for _, rec := range h.Stack {
		w += 1 + rec.HS.Words()
	}
	for _, g := range h.Global {
		w += 2 + g.Label.Words()
	}
	return w
}

var _ sim.Header = (*ExHeader)(nil)
var _ sim.Forwarder = (*ExStretch)(nil)
var _ Scheme = (*ExStretch)(nil)

// ExStretchConfig tunes construction.
type ExStretchConfig struct {
	// K is the tradeoff parameter (word length); >= 2. Tables scale as
	// O~(n^(1/k)) and stretch as (2^k - 1) times the hop stretch.
	K int
	// CoverK is the sparse-cover parameter of the hop substrate;
	// defaults to K.
	CoverK int
	// ScaleBase is the hop substrate's cover scale ratio (default 2).
	ScaleBase float64
	// Variant selects the cover construction (default Awerbuch–Peleg).
	Variant cover.Variant
	// Blocks configures the Lemma 4 assignment.
	Blocks blocks.Config
	// DirectReturn selects the §3.5 variant: instead of retracing the
	// waypoint stack, the packet carries the source's globally valid
	// label (its home tree and address at every level) and the
	// destination routes straight back through the lowest shared tree.
	// The paper notes this costs "longer headers and two sets of routing
	// tables" for a worse worst case — the E4 ablation measures it.
	DirectReturn bool
	// BuildWorkers is the worker count of the Init-order fill and the
	// per-node table build (0 = GOMAXPROCS, 1 = sequential). Output is
	// identical for every value.
	BuildWorkers int
}

// NewExStretch builds the scheme. m may be any distance oracle.
func NewExStretch(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, rng *rand.Rand, cfg ExStretchConfig) (*ExStretch, error) {
	n := g.N()
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: exstretch needs K >= 2, got %d", cfg.K)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: exstretch needs at least 2 nodes, got %d", n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, graph has %d", perm.N(), n)
	}
	coverK := cfg.CoverK
	if coverK < 2 {
		coverK = cfg.K
	}
	base := cfg.ScaleBase
	if base <= 1 {
		base = 2
	}

	space := rtmetric.New(g, m, perm.Names)
	hop, err := rtz.NewHop(g, m, coverK, base, cfg.Variant)
	if err != nil {
		return nil, fmt.Errorf("core: hop substrate: %w", err)
	}
	// The tables walk whole Init orders; filling them on every core
	// first leaves the serial block assignment only cache reads.
	space.Precompute(n, cfg.BuildWorkers)
	bcfg := cfg.Blocks
	bcfg.Names = perm.Names
	assign, err := blocks.Assign(space, cfg.K, rng, bcfg)
	if err != nil {
		return nil, fmt.Errorf("core: block assignment: %w", err)
	}

	s := &ExStretch{
		g: g, perm: perm, hop: hop, uni: assign.U, assign: assign,
		k: cfg.K, directReturn: cfg.DirectReturn,
		nodes: make([]*exTable, n),
	}
	sizes := rtmetric.NeighborhoodSizes(n, cfg.K)

	r2 := func(u, v graph.NodeID) (rtz.Handshake, error) {
		hs, _, err := hop.R2(u, v)
		return hs, err
	}

	// Per-node tables read only shared immutable state (hierarchy,
	// assignment, Init orders); build them in parallel.
	err = parallel.ForEach(n, cfg.BuildWorkers, func(u int) error {
		tab := &exTable{
			selfName:  perm.Name(int32(u)),
			neighbors: make(map[int32]rtz.Handshake),
			dict:      make(map[exDictKey]exDictEntry),
			full:      make(map[int32]rtz.Handshake),
			hopTab:    hop.Tables[u],
		}
		// (2) N_1(u) handshakes.
		for _, v := range space.Neighborhood(graph.NodeID(u), sizes[1]) {
			if v == graph.NodeID(u) {
				continue
			}
			hs, err := r2(graph.NodeID(u), v)
			if err != nil {
				return err
			}
			tab.neighbors[perm.Name(int32(v))] = hs
		}
		// (3a) prefix-advancing dictionary, deduplicated by (level,
		// prefix value, next digit).
		initOrder := space.Init(graph.NodeID(u))
		for _, b := range assign.Sets[u] {
			for i := 0; i < cfg.K-1; i++ {
				prefix := assign.U.BlockPrefix(b, i)
				for tau := int32(0); tau < int32(assign.U.Q); tau++ {
					key := exDictKey{Level: int8(i), Prefix: prefix, Tau: tau}
					if _, done := tab.dict[key]; done {
						continue
					}
					target := graph.NodeID(-1)
					for _, w := range initOrder {
						if holdsPrefixDigit(assign, w, i, prefix, tau) {
							target = w
							break
						}
					}
					if target < 0 {
						continue // no holder anywhere: prefix+τ class unrealized
					}
					var hs rtz.Handshake
					if target != graph.NodeID(u) {
						var err error
						if hs, err = r2(graph.NodeID(u), target); err != nil {
							return err
						}
					}
					tab.dict[key] = exDictEntry{TargetName: perm.Name(int32(target)), HS: hs}
				}
			}
		}
		// (3b) full dictionary entries of held blocks.
		for _, b := range assign.Sets[u] {
			for _, nm := range assign.U.NamesInBlock(b) {
				v := graph.NodeID(perm.Node(nm))
				var hs rtz.Handshake
				if v != graph.NodeID(u) {
					var err error
					if hs, err = r2(graph.NodeID(u), v); err != nil {
						return err
					}
				}
				tab.full[nm] = hs
			}
		}
		// Global label for the §3.5 direct-return variant.
		if cfg.DirectReturn {
			for li, lvl := range hop.Hierarchy.Levels {
				ref := cover.TreeRef{Level: int32(li), Index: lvl.Cover.Home[u]}
				lbl, ok := hop.Hierarchy.Tree(ref).LabelOf(graph.NodeID(u))
				if !ok {
					return fmt.Errorf("core: home tree %v lacks label for %d", ref, u)
				}
				tab.global = append(tab.global, ExGlobal{Ref: ref, Label: lbl})
			}
		}
		s.nodes[u] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// holdsPrefixDigit reports whether node w holds a block matching the
// given length-i prefix whose (i+1)-st digit is tau.
func holdsPrefixDigit(a *blocks.Assignment, w graph.NodeID, i int, prefix, tau int32) bool {
	for _, b := range a.Sets[w] {
		if a.U.BlockPrefix(b, i) == prefix && a.U.BlockPrefix(b, i+1) == prefix*int32(a.U.Q)+tau {
			return true
		}
	}
	return false
}

// SchemeName implements Scheme.
func (s *ExStretch) SchemeName() string {
	if s.directReturn {
		return fmt.Sprintf("exstretch(k=%d,direct-return)", s.k)
	}
	return fmt.Sprintf("exstretch(k=%d)", s.k)
}

// lookupNext finds the next waypoint from node u at hop index i (the
// packet has matched i digits so far): the (3a) dictionary for i+1 < k,
// or the (3b) full entry for the final hop.
func (s *ExStretch) lookupNext(tab *exTable, hopIdx int, destName int32) (int32, rtz.Handshake, error) {
	if hopIdx+1 >= s.k {
		hs, ok := tab.full[destName]
		if !ok {
			return 0, rtz.Handshake{}, fmt.Errorf("core: node %d lacks full entry for %d", tab.selfName, destName)
		}
		return destName, hs, nil
	}
	key := exDictKey{
		Level:  int8(hopIdx),
		Prefix: s.uni.Prefix(destName, hopIdx),
		Tau:    s.uni.Prefix(destName, hopIdx+1) % int32(s.uni.Q),
	}
	e, ok := tab.dict[key]
	if !ok {
		return 0, rtz.Handshake{}, fmt.Errorf("core: node %d lacks dictionary entry %+v for %d", tab.selfName, key, destName)
	}
	return e.TargetName, e.HS, nil
}

// advance runs the Fig. 4 waypoint loop at the current node: skip
// waypoints colocated here, then arm the leg toward the next real
// waypoint (pushing the handshake for the return trip).
func (s *ExStretch) advance(tab *exTable, h *ExHeader) error {
	for {
		if int(h.Hop) >= s.k {
			return fmt.Errorf("core: advance called at hop %d >= k", h.Hop)
		}
		nextName, hs, err := s.lookupNext(tab, int(h.Hop), h.DestName)
		if err != nil {
			return err
		}
		h.Hop++
		if nextName == tab.selfName {
			if int(h.Hop) >= s.k {
				return fmt.Errorf("core: final waypoint equals non-destination node %d", tab.selfName)
			}
			continue
		}
		if !s.directReturn {
			h.Stack = append(h.Stack, ExWaypoint{Name: tab.selfName, HS: hs})
		}
		h.NextWaypointName = nextName
		h.Leg = rtz.HopHeader{Ref: hs.Ref, Target: hs.VLabel}
		h.LegSet = true
		return nil
	}
}

// Forward implements the Fig. 6 local routing algorithm.
func (s *ExStretch) Forward(at graph.NodeID, header sim.Header) (graph.PortID, bool, error) {
	h, ok := header.(*ExHeader)
	if !ok {
		return 0, false, fmt.Errorf("core: exstretch got %T header", header)
	}
	tab := s.nodes[at]
	nx := tab.selfName

	switch h.Mode {
	case ModeNewPacket:
		h.Mode = ModeOutbound
		h.SrcName = nx
		h.Hop = 0
		h.Stack = h.Stack[:0]
		if s.directReturn {
			h.Global = tab.global
		}
		if h.DestName == nx {
			return 0, true, nil
		}
		if err := s.advance(tab, h); err != nil {
			return 0, false, err
		}

	case ModeOutbound:
		if nx == h.NextWaypointName {
			// Deliver only when the destination is the leg target: a
			// packet merely passing through t mid-leg must continue, or
			// the return trip would pop a handshake whose tree need not
			// contain t.
			if nx == h.DestName {
				return 0, true, nil
			}
			if err := s.advance(tab, h); err != nil {
				return 0, false, err
			}
		}

	case ModeReturnPacket:
		h.Mode = ModeInbound
		if nx == h.SrcName {
			return 0, true, nil
		}
		if s.directReturn {
			// §3.5 variant: route straight home through the lowest
			// shared tree of the source's global label.
			for _, g := range h.Global {
				if _, ok := tab.hopTab.Trees[g.Ref]; ok {
					h.NextWaypointName = h.SrcName
					h.Leg = rtz.HopHeader{Ref: g.Ref, Target: g.Label}
					h.LegSet = true
					break
				}
			}
			if !h.LegSet {
				return 0, false, fmt.Errorf("core: no shared tree with source %d at %d", h.SrcName, nx)
			}
			break
		}
		if len(h.Stack) == 0 {
			return 0, false, fmt.Errorf("core: return packet at %d with empty waypoint stack", nx)
		}
		rec := h.Stack[len(h.Stack)-1]
		h.Stack = h.Stack[:len(h.Stack)-1]
		h.NextWaypointName = rec.Name
		h.Leg = rtz.HopHeader{Ref: rec.HS.Ref, Target: rec.HS.ULabel}
		h.LegSet = true

	case ModeInbound:
		if nx == h.NextWaypointName {
			if len(h.Stack) == 0 {
				if nx != h.SrcName {
					return 0, false, fmt.Errorf("core: stack empty at %d but source is %d", nx, h.SrcName)
				}
				return 0, true, nil
			}
			rec := h.Stack[len(h.Stack)-1]
			h.Stack = h.Stack[:len(h.Stack)-1]
			h.NextWaypointName = rec.Name
			h.Leg = rtz.HopHeader{Ref: rec.HS.Ref, Target: rec.HS.ULabel}
		}

	default:
		return 0, false, fmt.Errorf("core: invalid mode %v", h.Mode)
	}

	if !h.LegSet {
		return 0, false, fmt.Errorf("core: packet at %d has no active leg", nx)
	}
	port, delivered, err := rtz.ForwardHop(tab.hopTab, &h.Leg)
	if err != nil {
		return 0, false, err
	}
	if delivered {
		return 0, false, fmt.Errorf("core: hop leg delivered at %d without waypoint match", nx)
	}
	return port, false, nil
}

// NewHeader implements sim.Plane.
func (s *ExStretch) NewHeader(srcName, dstName int32) (sim.Header, error) {
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return nil, fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	return &ExHeader{Mode: ModeNewPacket, DestName: dstName}, nil
}

// ResetHeader implements sim.Plane: rewrite an earlier header in place
// into a fresh Fig. 6 outbound header. The waypoint stack keeps its
// capacity, so a reused header stops allocating once it has seen a
// k-waypoint route.
func (s *ExStretch) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*ExHeader)
	if !ok {
		return fmt.Errorf("core: exstretch got %T header", h)
	}
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	*hh = ExHeader{Mode: ModeNewPacket, DestName: dstName, Stack: hh.Stack[:0]}
	return nil
}

// BeginReturn implements sim.Plane.
func (s *ExStretch) BeginReturn(h sim.Header) error {
	hh, ok := h.(*ExHeader)
	if !ok {
		return fmt.Errorf("core: exstretch got %T header", h)
	}
	hh.Mode = ModeReturnPacket
	return nil
}

// NodeOf implements sim.Plane.
func (s *ExStretch) NodeOf(name int32) graph.NodeID { return graph.NodeID(s.perm.Node(name)) }

// Graph implements sim.Plane.
func (s *ExStretch) Graph() *graph.Graph { return s.g }

// Roundtrip implements Scheme.
func (s *ExStretch) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(s, srcName, dstName, 0)
}

// Waypoints returns the waypoint node sequence s = v_0, ..., v_k = t the
// scheme visits for this pair, computed from the same tables the packet
// would consult. Exposed for the Lemma 8 experiments.
func (s *ExStretch) Waypoints(srcName, dstName int32) ([]graph.NodeID, error) {
	cur := graph.NodeID(s.perm.Node(srcName))
	dst := graph.NodeID(s.perm.Node(dstName))
	seq := []graph.NodeID{cur}
	if cur == dst {
		return seq, nil
	}
	for hop := 0; hop < s.k; {
		tab := s.nodes[cur]
		nextName, _, err := s.lookupNext(tab, hop, dstName)
		if err != nil {
			return nil, err
		}
		hop++
		next := graph.NodeID(s.perm.Node(nextName))
		if next == cur {
			continue
		}
		seq = append(seq, next)
		cur = next
	}
	if cur != dst {
		return nil, fmt.Errorf("core: waypoint walk ended at %d, want %d", cur, dst)
	}
	return seq, nil
}

// K returns the tradeoff parameter.
func (s *ExStretch) K() int { return s.k }

// PrefixStep is one stop of the Fig. 5 prefix-matching walk.
type PrefixStep struct {
	Node    graph.NodeID
	Name    int32
	Digits  []int // base-q digits of the waypoint's name
	Matched int   // digits of the destination matched by a held block
}

// PrefixTrace reports the Fig. 5 walk: each waypoint with its name
// digits and the destination-prefix length its blocks match — the
// "increasingly matching the destination" illustration.
func (s *ExStretch) PrefixTrace(srcName, dstName int32) ([]PrefixStep, error) {
	if s.assign == nil {
		return nil, fmt.Errorf("core: PrefixTrace unavailable on an assembled deployment (block assignment not part of local state)")
	}
	wps, err := s.Waypoints(srcName, dstName)
	if err != nil {
		return nil, err
	}
	steps := make([]PrefixStep, 0, len(wps))
	for _, w := range wps {
		nm := s.perm.Name(int32(w))
		matched := 0
		for i := s.k; i >= 0; i-- {
			if s.HoldsPrefix(w, i, dstName) {
				matched = i
				break
			}
		}
		if nm == dstName {
			matched = s.k
		}
		steps = append(steps, PrefixStep{Node: w, Name: nm, Digits: s.uni.Digits(nm), Matched: matched})
	}
	return steps, nil
}

// Universe exposes the base-q name coding for display tools.
func (s *ExStretch) Universe() blocks.Universe { return s.uni }

// HoldsPrefix reports whether node v stores a block whose first i digits
// match the first i digits of the given name — the §3.4 waypoint
// invariant. Exposed for the experiments. On an assembled Deployment the
// block assignment is not part of any node's local state, so HoldsPrefix
// reports false for every query; use PrefixTrace, which returns an
// explicit error, when deployment-origin schemes may reach this code.
func (s *ExStretch) HoldsPrefix(v graph.NodeID, i int, name int32) bool {
	if s.assign == nil {
		return false
	}
	want := s.uni.Prefix(name, i)
	for _, b := range s.assign.Sets[v] {
		if s.uni.BlockPrefix(b, i) == want {
			return true
		}
	}
	return false
}

// HopSubstrate exposes the hop scheme for experiments.
func (s *ExStretch) HopSubstrate() *rtz.HopScheme { return s.hop }

// MaxTableWords implements Scheme.
func (s *ExStretch) MaxTableWords() int {
	m := 0
	for _, t := range s.nodes {
		if w := t.words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords implements Scheme.
func (s *ExStretch) AvgTableWords() float64 {
	total := 0
	for _, t := range s.nodes {
		total += t.words()
	}
	return float64(total) / float64(len(s.nodes))
}
