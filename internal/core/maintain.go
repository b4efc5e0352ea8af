package core

import (
	"fmt"
	"math/rand"
	"reflect"

	"rtroute/internal/blocks"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
)

// MaintainReport accounts one incremental RebuildNodes pass across the
// layered scheme state, for the churn experiments' delta-cost metrics.
type MaintainReport struct {
	// DirtyNodes is the size of the dirty set: nodes whose per-node
	// solver state (distance rows, Init orders, dictionary contents) was
	// re-derived. The "delta-rebuild touched X% of nodes" metric.
	DirtyNodes int
	// RebuiltTrees / RebuiltClusters account the substrate delta
	// (rtz.MaintainReport).
	RebuiltTrees    int
	RebuiltClusters int
	// PatchedLabels counts stale R3 copies rewritten by value in clean
	// nodes' dictionaries — cheap pointer-chase work, no solver runs.
	PatchedLabels int
	// RebuiltTables counts per-node scheme tables rebuilt outright.
	RebuiltTables int
	// FullRebuild is set when the maintainer had to fall back to
	// rebuilding every per-node table (block-assignment drift, or a
	// scheme kind with no incremental path).
	FullRebuild bool
}

// S6Maintainer keeps a live StretchSix plane route-identical to what a
// from-scratch build would produce on the (mutating) graph, rebuilding
// only what a churn event's may-use affected set can touch:
//
//   - the stretch-3 substrate delta-rebuilds via rtz.Maintainer;
//   - dirty nodes' Init orders are invalidated and their §2.1 tables
//     rebuilt through the exact same per-node constructor the fresh
//     builder runs;
//   - the Lemma 1 block assignment is re-derived from an identically
//     re-seeded stream against the maintained order cache — replaying
//     the fresh builder's sample-and-verify loop bit-exactly, so even
//     its retry behavior under the new topology is reproduced — and if
//     the resulting sets drift from the cached ones (a verification
//     retry fired), the maintainer falls back to a full table rebuild;
//   - clean nodes' stale copies of changed substrate addresses are
//     patched by value through a name->holders reverse index.
type S6Maintainer struct {
	s        *StretchSix
	m        graph.DistanceOracle
	perm     *names.Permutation
	cfg      Stretch6Config
	seed     int64
	subM     *rtz.Maintainer
	space    *rtmetric.Space
	assign   *blocks.Assignment
	nbhdSize int
	// holders[name] lists the nodes whose label dictionary carries an
	// entry for that name (items 1+3); used to patch changed substrate
	// addresses without rebuilding the holder.
	holders map[int32][]graph.NodeID
}

// NewStretchSixMaintained builds a StretchSix plane exactly as
// NewStretchSix seeded with seed would (same rng consumption, same
// substrate, same assignment, same tables) and returns it with its
// maintainer. The plane's label dictionaries stay unsealed so they can
// be patched in place; routing behavior is identical.
func NewStretchSixMaintained(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, seed int64, cfg Stretch6Config) (*S6Maintainer, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("core: stretch-6 needs at least 2 nodes, got %d", n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, graph has %d", perm.N(), n)
	}
	space := rtmetric.New(g, m, perm.Names)
	rng := rand.New(rand.NewSource(seed))
	subM, err := rtz.NewMaintained(g, m, rng, cfg.Substrate, cfg.BuildWorkers)
	if err != nil {
		return nil, fmt.Errorf("core: stretch-3 substrate: %w", err)
	}
	sub := subM.Scheme()
	nbhdSize := rtmetric.NeighborhoodSizes(n, 2)[1]
	space.Precompute(nbhdSize, cfg.BuildWorkers) // as in NewStretchSix
	bcfg := cfg.Blocks
	bcfg.Names = perm.Names
	assign, err := blocks.Assign(space, 2, rng, bcfg)
	if err != nil {
		return nil, fmt.Errorf("core: block assignment: %w", err)
	}

	mt := &S6Maintainer{
		s:        &StretchSix{g: g, perm: perm, sub: sub, uni: assign.U, viaSource: cfg.ViaSource, nodes: make([]*s6Table, n)},
		m:        m,
		perm:     perm,
		cfg:      cfg,
		seed:     seed,
		subM:     subM,
		space:    space,
		assign:   assign,
		nbhdSize: nbhdSize,
		holders:  make(map[int32][]graph.NodeID),
	}
	err = parallel.ForEach(n, cfg.BuildWorkers, func(u int) error {
		tab, err := buildS6Node(u, perm, sub, space, assign, nbhdSize, true)
		mt.s.nodes[u] = tab
		return err
	})
	if err != nil {
		return nil, err
	}
	// The holders index is shared across nodes, so it is filled after
	// the parallel build, in node order.
	for u, tab := range mt.s.nodes {
		for nm := range tab.labels {
			mt.holders[nm] = append(mt.holders[nm], graph.NodeID(u))
		}
	}
	return mt, nil
}

// Plane returns the maintained live plane.
func (mt *S6Maintainer) Plane() *StretchSix { return mt.s }

// Substrate returns the maintained stretch-3 substrate maintainer.
func (mt *S6Maintainer) Substrate() *rtz.Maintainer { return mt.subM }

// RebuildNodes incorporates the topology mutations whose may-use
// affected set is covered by dirty (see churn.Affected). The graph must
// already be mutated. On return the plane is route-identical — LocalState
// for LocalState — to a fresh NewStretchSix(seed) build on the current
// graph.
func (mt *S6Maintainer) RebuildNodes(dirty []graph.NodeID) (MaintainReport, error) {
	return mt.RebuildNodesOwned(dirty, nil)
}

// RebuildNodesOwned is RebuildNodes restricted to a shard's slice of the
// plane. The global layers — the substrate delta, the Init-order
// invalidation, the block-assignment replay — still process the full
// dirty set, because every node's table derives from them; but the
// per-node table rebuilds and label patches, the dominant cost, are
// filtered to nodes owned reports true for. Foreign tables go stale,
// harmlessly: a shard never forwards at a foreign node, and the cluster
// certification compares owned LocalStates only. owned == nil means all
// nodes (plain RebuildNodes).
func (mt *S6Maintainer) RebuildNodesOwned(dirty []graph.NodeID, owned func(graph.NodeID) bool) (MaintainReport, error) {
	rep := MaintainReport{DirtyNodes: len(dirty)}

	// 1. Substrate delta.
	subRep, err := mt.subM.Apply(dirty)
	if err != nil {
		return rep, err
	}
	rep.RebuiltTrees = subRep.RebuiltTrees
	rep.RebuiltClusters = subRep.RebuiltClusters

	// 2. Dirty nodes' Init orders are stale; everything else's provably
	// is not.
	mt.space.InvalidateOrders(dirty)

	// 3. Replay the block assignment from an identically re-seeded
	// stream against the maintained order cache. Usually the draws and
	// the verification outcome are unchanged and Sets come back
	// bit-identical; if the new topology shifts the sample-and-verify
	// loop, fall back to a full table rebuild below.
	rng := rand.New(rand.NewSource(mt.seed))
	rng.Perm(mt.s.g.N()) // the substrate's center draw precedes the assignment
	bcfg := mt.cfg.Blocks
	bcfg.Names = mt.perm.Names
	assign, err := blocks.Assign(mt.space, 2, rng, bcfg)
	if err != nil {
		return rep, fmt.Errorf("core: block assignment under churn: %w", err)
	}
	rebuild := dirty
	if !reflect.DeepEqual(assign.Sets, mt.assign.Sets) {
		rep.FullRebuild = true
		all := make([]graph.NodeID, mt.s.g.N())
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		rebuild = all
	}
	mt.assign = assign
	mt.s.uni = assign.U

	// 4. Rebuild dirty nodes' tables through the fresh builder's own
	// per-node constructor, keeping the name->holders index in step.
	rebuilt := make(map[graph.NodeID]bool, len(rebuild))
	for _, u := range rebuild {
		if owned != nil && !owned(u) {
			continue
		}
		old := mt.s.nodes[u]
		tab, err := buildS6Node(int(u), mt.perm, mt.subM.Scheme(), mt.space, assign, mt.nbhdSize, true)
		if err != nil {
			return rep, err
		}
		for nm := range old.labels {
			if _, still := tab.labels[nm]; !still {
				mt.holders[nm] = removeHolder(mt.holders[nm], u)
			}
		}
		for nm := range tab.labels {
			if _, had := old.labels[nm]; !had {
				mt.holders[nm] = append(mt.holders[nm], u)
			}
		}
		mt.s.nodes[u] = tab
		rebuilt[u] = true
		rep.RebuiltTables++
	}

	// 5. Patch stale copies of changed substrate addresses in clean
	// nodes: value writes via the reverse index, no solver work.
	for _, x := range subRep.ChangedLabels {
		lbl := mt.subM.Scheme().LabelOf(x)
		if !rebuilt[x] && (owned == nil || owned(x)) {
			mt.s.nodes[x].ownLabel = lbl
		}
		nm := mt.perm.Name(int32(x))
		for _, v := range mt.holders[nm] {
			if rebuilt[v] || (owned != nil && !owned(v)) {
				continue
			}
			if _, ok := mt.s.nodes[v].labels[nm]; ok {
				mt.s.nodes[v].labels[nm] = lbl
				rep.PatchedLabels++
			}
		}
	}
	return rep, nil
}

func removeHolder(s []graph.NodeID, u graph.NodeID) []graph.NodeID {
	for i, v := range s {
		if v == u {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
