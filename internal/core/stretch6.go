package core

import (
	"fmt"
	"math/rand"
	"slices"

	"rtroute/internal/blocks"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
	"rtroute/internal/sealed"
	"rtroute/internal/sim"
)

// StretchSix is the §2 scheme: a TINN compact roundtrip routing scheme
// with O~(sqrt n) tables and stretch 6.
//
// Per-node storage (§2.1):
//  1. for every v in N(u) — the first ceil(sqrt n) nodes of Init_u — the
//     pair (name(v), R3(v));
//  2. for every block index i, the name of a node t in N(u) with
//     B_i in S_t (Lemma 1 guarantees one exists);
//  3. for every block B in S_u and every name j in B, the pair
//     (j, R3(node named j));
//  4. the substrate table Tab3(u) of the stretch-3 name-dependent scheme.
type StretchSix struct {
	g         *graph.Graph
	perm      *names.Permutation
	sub       *rtz.Scheme
	uni       blocks.Universe
	viaSource bool
	nodes     []*s6Table
}

type s6Table struct {
	selfName int32
	ownLabel rtz.Label
	// lbl merges storage items (1) and (3), destination name -> R3, as
	// the probe table the forwarding hot path reads. A maintained plane
	// holds them in the labels map instead, which the maintainer patches
	// in place; a table has exactly one of the two.
	lbl    sealed.Table[rtz.Label]
	labels map[int32]rtz.Label
	// blockHolder is storage item (2): block id -> name of a
	// neighborhood node holding that block.
	blockHolder []int32
	// tab3 is storage item (4).
	tab3 *rtz.Table

	neighborEntries int // size of (1), for accounting
}

// label resolves a destination name against the dictionary.
func (t *s6Table) label(name int32) (rtz.Label, bool) {
	if !t.lbl.Built() {
		l, ok := t.labels[name]
		return l, ok
	}
	return t.lbl.Get(name)
}

// entries returns the dictionary, items (1)+(3), sorted by name —
// sealed or not. Sorting the int32 names and probing each back is much
// cheaper than sorting the (name, label) pairs.
func (t *s6Table) entries() []S6Entry {
	names := make([]int32, 0, t.lbl.Len()+len(t.labels))
	t.lbl.Range(func(nm int32, _ rtz.Label) { names = append(names, nm) })
	for nm := range t.labels {
		names = append(names, nm)
	}
	slices.Sort(names)
	out := make([]S6Entry, len(names))
	for i, nm := range names {
		l, _ := t.label(nm)
		out[i] = S6Entry{Name: nm, Label: l}
	}
	return out
}

func (t *s6Table) words() int {
	w := 2 + t.ownLabel.Words() + t.tab3.Words() + 2*len(t.blockHolder)
	t.lbl.Range(func(_ int32, l rtz.Label) {
		w += 1 + l.Words()
	})
	for _, l := range t.labels { // a maintained table's dictionary
		w += 1 + l.Words()
	}
	return w
}

// S6Stage tracks the ViaSource variant's progress through its
// s -> w -> s -> t itinerary.
type S6Stage int8

const (
	S6StageDirect S6Stage = iota
	S6StageFetch
	S6StageFetchReturn
	S6StageFinal
)

// S6Header is the packet header of Fig. 3.
type S6Header struct {
	Mode     Mode
	DestName int32
	SrcName  int32
	SrcLabel rtz.Label
	DictName int32 // name of the dictionary waypoint w, -1 when direct
	Stage    S6Stage
	Fetched  rtz.Label // R3(t) fetched at w (ViaSource variant only)
	Leg      rtz.Header
	LegSet   bool

	// Cached word counts of Leg, SrcLabel and Fetched. The header is
	// measured on every hop but rewritten only at waypoints, so Words
	// must not re-walk the label structures per hop; setLeg/setSrcLabel/
	// setFetched keep the caches in step (locked by
	// TestS6HeaderWordsCacheConsistent).
	legW, srcW, fetchedW int32
}

func (h *S6Header) setLeg(l rtz.Header) {
	h.Leg = l
	h.legW = int32(l.Words())
	h.LegSet = true
}

func (h *S6Header) setSrcLabel(l rtz.Label) {
	h.SrcLabel = l
	h.srcW = int32(l.Words())
}

func (h *S6Header) setFetched(l rtz.Label) {
	h.Fetched = l
	h.fetchedW = int32(l.Words())
}

// SyncCaches recomputes the cached word counts from the label fields.
// The wire decoder writes the exported fields directly and then calls
// this once, so a decoded header measures exactly like a live one.
func (h *S6Header) SyncCaches() {
	h.legW = int32(h.Leg.Words())
	h.srcW = int32(h.SrcLabel.Words())
	h.fetchedW = int32(h.Fetched.Words())
}

// PrimeWordCaches is SyncCaches for the lazy flight-frame decoder,
// which may leave SrcLabel/Fetched undecoded on a forwarding shard: all
// three word counts travel in the frame's fixed section, so the header
// measures exactly like the fully decoded original without re-walking
// any label structure per crossing.
func (h *S6Header) PrimeWordCaches(legW, srcW, fetchedW int32) {
	h.legW = legW
	h.srcW = srcW
	h.fetchedW = fetchedW
}

// Words implements sim.Header.
func (h *S6Header) Words() int {
	w := 6 + int(h.legW)
	if h.Mode >= ModeOutbound {
		w += int(h.srcW)
	}
	if h.Stage == S6StageFetchReturn || h.Stage == S6StageFinal {
		w += int(h.fetchedW)
	}
	return w
}

// wordsRecomputed is the reference implementation of Words, re-deriving
// every cached component; the cache-consistency test compares the two.
func (h *S6Header) wordsRecomputed() int {
	w := 6 + h.Leg.Words()
	if h.Mode >= ModeOutbound {
		w += h.SrcLabel.Words()
	}
	if h.Stage == S6StageFetchReturn || h.Stage == S6StageFinal {
		w += h.Fetched.Words()
	}
	return w
}

var _ sim.Header = (*S6Header)(nil)
var _ sim.Forwarder = (*StretchSix)(nil)
var _ Scheme = (*StretchSix)(nil)

// Stretch6Config tunes construction.
type Stretch6Config struct {
	// Blocks configures the Lemma 1 assignment.
	Blocks blocks.Config
	// Substrate configures the stretch-3 scheme.
	Substrate rtz.Config
	// ViaSource selects the variant discussed at the end of §2.2: route
	// s -> w -> s to fetch the destination's address, then s -> t -> s.
	// Same worst-case stretch 6, but "it can result in longer paths
	// since it always routes back through s" — the E3 ablation measures
	// exactly that.
	ViaSource bool
	// BuildWorkers is the worker count of every parallel build stage
	// (0 = GOMAXPROCS, 1 = sequential): the substrate's center trees,
	// labels and clusters, the Init-prefix fill and the per-node tables.
	// The block assignment and the incremental repair path stay
	// sequential. Output is identical for every value.
	BuildWorkers int
}

// NewStretchSix builds the scheme over g with naming perm. m may be any
// distance oracle; construction never requires the dense n×n matrix.
func NewStretchSix(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, rng *rand.Rand, cfg Stretch6Config) (*StretchSix, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("core: stretch-6 needs at least 2 nodes, got %d", n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, graph has %d", perm.N(), n)
	}
	space := rtmetric.New(g, m, perm.Names)
	sub, err := rtz.New(g, m, rng, cfg.Substrate, cfg.BuildWorkers)
	if err != nil {
		return nil, fmt.Errorf("core: stretch-3 substrate: %w", err)
	}
	nbhdSize := rtmetric.NeighborhoodSizes(n, 2)[1]
	// Lemma 1's verifier and every table read only the ceil(sqrt n)-deep
	// Init prefixes. Fill them on every core first, so the serial block
	// assignment and the parallel table build below only read the cache.
	space.Precompute(nbhdSize, cfg.BuildWorkers)
	bcfg := cfg.Blocks
	bcfg.Names = perm.Names
	assign, err := blocks.Assign(space, 2, rng, bcfg)
	if err != nil {
		return nil, fmt.Errorf("core: block assignment: %w", err)
	}

	s := &StretchSix{g: g, perm: perm, sub: sub, uni: assign.U, viaSource: cfg.ViaSource, nodes: make([]*s6Table, n)}
	err = parallel.ForEach(n, cfg.BuildWorkers, func(u int) error {
		tab, err := buildS6Node(u, perm, sub, space, assign, nbhdSize, false)
		s.nodes[u] = tab
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildS6Node constructs one node's §2.1 table from the shared read-only
// build state. It is the unit of work both the fresh builder and the
// incremental maintainer run per node: the fresh builder compiles the
// dictionary straight into the probe table, the maintainer (patchable)
// keeps it as a map it can patch in place.
func buildS6Node(u int, perm *names.Permutation, sub *rtz.Scheme, space *rtmetric.Space, assign *blocks.Assignment, nbhdSize int, patchable bool) (*s6Table, error) {
	numBlocks := assign.U.NumBlocks()
	tab := &s6Table{
		selfName:    perm.Name(int32(u)),
		ownLabel:    sub.LabelOf(graph.NodeID(u)),
		blockHolder: make([]int32, numBlocks),
		tab3:        sub.Tables[u],
	}
	for i := range tab.blockHolder {
		tab.blockHolder[i] = -1
	}
	nbhd := space.Neighborhood(graph.NodeID(u), nbhdSize)
	tab.neighborEntries = len(nbhd)
	// Items (3) and (1) as (name, R3) pairs, each name once: the probe
	// table is sized by the entry count, so duplicates would inflate it.
	dict := make([]S6Entry, 0, len(nbhd)+len(assign.Sets[u])*assign.U.Q)
	// (3) dictionary entries of the blocks stored here.
	for _, b := range assign.Sets[u] {
		for _, nm := range assign.U.NamesInBlock(b) {
			dict = append(dict, S6Entry{Name: nm, Label: sub.LabelOf(graph.NodeID(perm.Node(nm)))})
		}
	}
	// (1) neighborhood dictionary, less the names (3) already holds.
	for _, v := range nbhd {
		if nm := perm.Name(int32(v)); !assign.HoldsBlock(graph.NodeID(u), assign.U.BlockOf(nm)) {
			dict = append(dict, S6Entry{Name: nm, Label: sub.LabelOf(v)})
		}
	}
	// (2) block holders: the Init_u-nearest holder in N(u).
	for _, v := range nbhd {
		for _, b := range assign.Sets[v] {
			if tab.blockHolder[b] < 0 {
				tab.blockHolder[b] = perm.Name(int32(v))
			}
		}
	}
	for b := 0; b < numBlocks; b++ {
		// Blocks holding no real names need no holder; every block
		// of a real name must be covered (Lemma 1).
		if tab.blockHolder[b] < 0 && len(assign.U.NamesInBlock(blocks.BlockID(b))) > 0 {
			return nil, fmt.Errorf("core: node %d has no holder for block %d in its neighborhood", u, b)
		}
	}
	if patchable {
		tab.labels = make(map[int32]rtz.Label, len(dict))
		for _, e := range dict {
			tab.labels[e.Name] = e.Label
		}
	} else {
		tab.lbl = sealed.CompileEach(len(dict), func(i int) (int32, rtz.Label) { return dict[i].Name, dict[i].Label })
	}
	return tab, nil
}

// SchemeName implements Scheme.
func (s *StretchSix) SchemeName() string {
	if s.viaSource {
		return "stretch6(via-source)"
	}
	return "stretch6"
}

// Forward implements the Fig. 3 local routing algorithm.
func (s *StretchSix) Forward(at graph.NodeID, header sim.Header) (graph.PortID, bool, error) {
	h, ok := header.(*S6Header)
	if !ok {
		return 0, false, fmt.Errorf("core: stretch-6 got %T header", header)
	}
	tab := s.nodes[at]
	nx := tab.selfName

	switch h.Mode {
	case ModeNewPacket:
		h.Mode = ModeOutbound
		h.SrcName = nx
		h.setSrcLabel(tab.ownLabel)
		h.DictName = -1
		if h.DestName == nx {
			return 0, true, nil
		}
		if lbl, ok := tab.label(h.DestName); ok {
			h.setLeg(rtz.Header{Dest: lbl.Node, Label: lbl, Phase: rtz.PhaseSeek})
		} else {
			if h.DestName < 0 || int(h.DestName) >= s.uni.N {
				return 0, false, fmt.Errorf("core: destination name %d outside the name space [0,%d)", h.DestName, s.uni.N)
			}
			holder := tab.blockHolder[s.uni.BlockOf(h.DestName)]
			if holder < 0 {
				return 0, false, fmt.Errorf("core: no dictionary holder for name %d at source %d", h.DestName, nx)
			}
			lbl, ok := tab.label(holder)
			if !ok {
				return 0, false, fmt.Errorf("core: holder %d for name %d not in neighborhood table of %d", holder, h.DestName, nx)
			}
			h.DictName = holder
			if s.viaSource {
				h.Stage = S6StageFetch
			}
			h.setLeg(rtz.Header{Dest: lbl.Node, Label: lbl, Phase: rtz.PhaseSeek})
		}

	case ModeReturnPacket:
		h.Mode = ModeInbound
		if nx == h.SrcName {
			return 0, true, nil
		}
		h.setLeg(rtz.Header{Dest: h.SrcLabel.Node, Label: h.SrcLabel, Phase: rtz.PhaseSeek})

	case ModeOutbound:
		switch {
		case nx == h.DestName:
			return 0, true, nil
		case nx == h.DictName:
			// Remote dictionary lookup (Fig. 3's DictID branch).
			lbl, ok := tab.label(h.DestName)
			if !ok {
				return 0, false, fmt.Errorf("core: dictionary node %d lacks entry for %d", nx, h.DestName)
			}
			h.DictName = -1
			if h.Stage == S6StageFetch {
				// §2.2 variant: carry R3(t) back to the source first.
				h.setFetched(lbl)
				h.Stage = S6StageFetchReturn
				h.setLeg(rtz.Header{Dest: h.SrcLabel.Node, Label: h.SrcLabel, Phase: rtz.PhaseSeek})
			} else {
				h.setLeg(rtz.Header{Dest: lbl.Node, Label: lbl, Phase: rtz.PhaseSeek})
			}
		case nx == h.SrcName && h.Stage == S6StageFetchReturn:
			// Back at the source with the fetched address: head to t.
			h.Stage = S6StageFinal
			h.setLeg(rtz.Header{Dest: h.Fetched.Node, Label: h.Fetched, Phase: rtz.PhaseSeek})
		}

	case ModeInbound:
		if nx == h.SrcName {
			return 0, true, nil
		}

	default:
		return 0, false, fmt.Errorf("core: invalid mode %v", h.Mode)
	}

	if !h.LegSet {
		return 0, false, fmt.Errorf("core: packet at %d has no active leg", nx)
	}
	port, delivered, err := rtz.Forward(tab.tab3, &h.Leg)
	if err != nil {
		return 0, false, err
	}
	if delivered {
		// The substrate thinks the leg target is here, but the mode
		// logic above did not recognize this node as a waypoint: the
		// name/label tables disagree, which is a construction bug.
		return 0, false, fmt.Errorf("core: leg delivered at %d without waypoint match", nx)
	}
	return port, false, nil
}

// NewHeader implements sim.Plane: a fresh Fig. 3 header addressed to
// dstName (the source name is learned at the first Forward, as the model
// requires).
func (s *StretchSix) NewHeader(srcName, dstName int32) (sim.Header, error) {
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return nil, fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	h := &S6Header{Mode: ModeNewPacket, DestName: dstName, DictName: -1}
	h.legW = int32(h.Leg.Words())
	return h, nil
}

// ResetHeader implements sim.Plane: rewrite an earlier header in place
// into a fresh Fig. 3 outbound header, allocating nothing.
func (s *StretchSix) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*S6Header)
	if !ok {
		return fmt.Errorf("core: stretch-6 got %T header", h)
	}
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	*hh = S6Header{Mode: ModeNewPacket, DestName: dstName, DictName: -1}
	hh.legW = int32(hh.Leg.Words())
	return nil
}

// BeginReturn implements sim.Plane: flip the delivered outbound header
// into the acknowledgment leg.
func (s *StretchSix) BeginReturn(h sim.Header) error {
	hh, ok := h.(*S6Header)
	if !ok {
		return fmt.Errorf("core: stretch-6 got %T header", h)
	}
	hh.Mode = ModeReturnPacket
	return nil
}

// NodeOf implements sim.Plane.
func (s *StretchSix) NodeOf(name int32) graph.NodeID { return graph.NodeID(s.perm.Node(name)) }

// Graph implements sim.Plane.
func (s *StretchSix) Graph() *graph.Graph { return s.g }

// Roundtrip implements Scheme: it routes srcName -> dstName and the
// acknowledgment back, as two sim runs sharing one header (the reply
// reuses the topology learned on the way out, §1.1.1).
func (s *StretchSix) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(s, srcName, dstName, 0)
}

// MaxTableWords implements Scheme.
func (s *StretchSix) MaxTableWords() int {
	m := 0
	for _, t := range s.nodes {
		if w := t.words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords implements Scheme.
func (s *StretchSix) AvgTableWords() float64 {
	total := 0
	for _, t := range s.nodes {
		total += t.words()
	}
	return float64(total) / float64(len(s.nodes))
}

// NeighborhoodEntries reports the size of storage item (1) at each node,
// for the space-accounting experiments.
func (s *StretchSix) NeighborhoodEntries(v graph.NodeID) int { return s.nodes[v].neighborEntries }
