package rtroute

import (
	"fmt"
	"math/rand"
	"reflect"

	"rtroute/internal/churn"
	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/rtz"
)

// MaintainReport accounts one RebuildNodes pass: how much per-node
// solver state was re-derived versus cheaply patched.
type MaintainReport = core.MaintainReport

// Maintained couples a live routing scheme with incremental maintenance
// under topology churn. Build once with System.BuildMaintained, then
// after each batch of graph mutations call RebuildNodes with the union
// of the events' may-use affected sets (churn.Overlay computes them);
// the scheme comes back route-identical to a from-scratch Build on the
// mutated graph, having re-run per-node construction only for the dirty
// set.
//
// StretchSix and RTZStretch3 maintain their plane in place — the Scheme
// returned by Plane stays valid (same pointer) across rebuilds. The
// remaining kinds (ExStretch, Polynomial, HopSubstrate) have no
// incremental path yet: RebuildNodes falls back to a full rebuild and
// swaps in a fresh plane, so callers must re-fetch Plane afterwards.
type Maintained struct {
	sys   *System
	kind  SchemeKind
	cfg   BuildConfig
	plane Scheme

	s6   *core.S6Maintainer
	rtzM *rtz.Maintainer
}

// BuildMaintained builds a scheme of the given kind exactly as Build
// would — same seed, same rng consumption, same tables — and returns it
// wrapped with incremental maintenance.
func (s *System) BuildMaintained(kind SchemeKind, opts ...BuildOption) (*Maintained, error) {
	cfg := BuildConfig{K: 2}
	for _, o := range opts {
		o(&cfg)
	}
	// A maintained scheme re-reads distances after every mutation, so the
	// oracle must track the graph. The dense matrix is computed once and
	// frozen; the lazy oracle re-derives rows against the graph's current
	// generation (see LazyOracle) and is the one BuildMaintained accepts.
	if _, ok := s.Metric.(*graph.LazyOracle); !ok {
		return nil, fmt.Errorf("rtroute: BuildMaintained needs a mutation-tracking oracle; create the System with MetricLazy")
	}
	m := &Maintained{sys: s, kind: kind, cfg: cfg}
	switch kind {
	case StretchSix:
		mt, err := core.NewStretchSixMaintained(s.Graph, s.Metric, s.Naming, cfg.Seed, core.Stretch6Config{
			Blocks:       cfg.Blocks,
			Substrate:    cfg.Substrate,
			ViaSource:    cfg.ViaSource,
			BuildWorkers: cfg.BuildWorkers,
		})
		if err != nil {
			return nil, err
		}
		m.s6 = mt
		m.plane = mt.Plane()
	case RTZStretch3:
		rng := rand.New(rand.NewSource(cfg.Seed))
		mt, err := rtz.NewMaintained(s.Graph, s.Metric, rng, cfg.Substrate, cfg.BuildWorkers)
		if err != nil {
			return nil, err
		}
		plane, err := core.NewRTZPlane(mt.Scheme(), s.Naming)
		if err != nil {
			return nil, err
		}
		m.rtzM = mt
		m.plane = plane
	case ExStretch, Polynomial, HopSubstrate:
		plane, err := s.BuildWith(kind, cfg)
		if err != nil {
			return nil, err
		}
		m.plane = plane
	default:
		return nil, fmt.Errorf("rtroute: unknown scheme kind %v", kind)
	}
	return m, nil
}

// Plane returns the live scheme. For StretchSix and RTZStretch3 the
// returned value is stable across RebuildNodes; for the full-rebuild
// kinds it is replaced by each RebuildNodes call.
func (m *Maintained) Plane() Scheme { return m.plane }

// Kind returns the scheme kind being maintained.
func (m *Maintained) Kind() SchemeKind { return m.kind }

// RebuildNodes incorporates graph mutations whose combined may-use
// affected set is dirty. The graph must already be mutated (the churn
// overlay mutates it while computing the set). On return the plane is
// route-identical to a fresh Build with the same configuration on the
// current graph.
func (m *Maintained) RebuildNodes(dirty []NodeID) (MaintainReport, error) {
	switch {
	case m.s6 != nil:
		return m.s6.RebuildNodes(dirty)
	case m.rtzM != nil:
		rep, err := m.rtzM.Apply(dirty)
		if err != nil {
			return MaintainReport{}, err
		}
		return MaintainReport{
			DirtyNodes:      rep.DirtyNodes,
			RebuiltTrees:    rep.RebuiltTrees,
			RebuiltClusters: rep.RebuiltClusters,
			PatchedLabels:   len(rep.ChangedLabels),
		}, nil
	default:
		// No incremental path for this kind: rebuild from scratch and
		// swap the plane.
		plane, err := m.sys.BuildWith(m.kind, m.cfg)
		if err != nil {
			return MaintainReport{}, err
		}
		m.plane = plane
		n := m.sys.Graph.N()
		return MaintainReport{
			DirtyNodes:    len(dirty),
			RebuiltTables: n,
			FullRebuild:   true,
		}, nil
	}
}

// RebuildNodesFor is RebuildNodes restricted to a shard's slice of the
// plane: per-node table rebuilds are filtered to the nodes owned reports
// true for, leaving foreign tables stale — harmless for a shard that
// only forwards at owned nodes, and exactly what the cluster repair
// path certifies (owned LocalStates against a reference replica).
// StretchSix filters steps that are per-node; RTZStretch3's substrate
// state is shared across all nodes, so it takes the full delta; the
// full-rebuild kinds rebuild and swap the plane as RebuildNodes does
// (re-fetch Plane, or Rebind a Deployment, afterwards). owned == nil
// behaves exactly like RebuildNodes.
func (m *Maintained) RebuildNodesFor(dirty []NodeID, owned func(NodeID) bool) (MaintainReport, error) {
	if m.s6 != nil {
		return m.s6.RebuildNodesOwned(dirty, owned)
	}
	return m.RebuildNodes(dirty)
}

// Certify verifies the maintained plane is route-identical to a fresh
// Build with the same configuration on the current graph: it rebuilds
// from scratch and compares the two planes' per-node LocalState
// decompositions bit for bit. This is the churn experiments' correctness
// oracle after every event batch; it costs a full build plus a
// decomposition pass.
func (m *Maintained) Certify() error {
	fresh, err := m.sys.BuildWith(m.kind, m.cfg)
	if err != nil {
		return fmt.Errorf("rtroute: certification rebuild: %w", err)
	}
	return CertifyIdentical(m.plane, fresh)
}

// Replica is one repairer's private copy of a maintained scheme: a
// clone of the graph, the scheme rebuilt from the same seed — so its
// tables start bit-identical to every other replica of that graph and
// to a snapshot of the same build — and a damped churn overlay over the
// clone. RunChurnCluster gives every shard one, plus a reference, and
// rtserve -repair arms one per daemon. Nothing is shared between
// replicas, so a repair is a genuinely local act. A replica absorbs one
// event batch at a time and is not safe for concurrent use.
type Replica struct {
	*Maintained
	ov    *churn.Overlay
	seen  []bool   // dirty-union scratch
	dirty []NodeID // the pending batch's union affected set
	at    float64  // the pending batch's last event time
}

// NewReplica clones g and builds a maintained scheme of the given kind
// over the clone with a lazy (mutation-tracking) oracle.
func NewReplica(g *Graph, naming *Naming, kind SchemeKind, cfg BuildConfig, damper DamperOptions) (*Replica, error) {
	gc := g.Clone()
	sys, err := NewSystemWith(gc, naming, SystemConfig{Metric: MetricLazy})
	if err != nil {
		return nil, err
	}
	m, err := sys.BuildMaintained(kind, func(c *BuildConfig) { *c = cfg })
	if err != nil {
		return nil, err
	}
	ov, err := churn.NewOverlay(gc, churn.NewDamper(damper))
	if err != nil {
		return nil, err
	}
	return &Replica{Maintained: m, ov: ov, seen: make([]bool, gc.N())}, nil
}

// Apply folds one event into the overlay (mutating the replica's
// graph) and its affected set into the pending batch.
func (r *Replica) Apply(ev ChurnEvent) error {
	ds, err := r.ov.Apply(ev)
	if err != nil {
		return err
	}
	r.union(ds)
	r.at = ev.At
	return nil
}

// Settle closes the pending batch: it advances the damper clock to the
// batch's last event, releasing links whose deferred recovery is now
// allowed, and returns the sorted union of every affected set — the
// dirty set RebuildNodes takes.
func (r *Replica) Settle() ([]NodeID, error) {
	released, err := r.ov.Advance(r.at)
	if err != nil {
		return nil, err
	}
	r.union(released)
	dirty := r.dirty
	r.dirty = nil
	for _, d := range dirty {
		r.seen[d] = false
	}
	churn.SortNodeIDs(dirty)
	return dirty, nil
}

func (r *Replica) union(ds []NodeID) {
	for _, d := range ds {
		if !r.seen[d] {
			r.seen[d] = true
			r.dirty = append(r.dirty, d)
		}
	}
}

// RepairHook returns a shard's repair hook (cluster Options.Repair):
// each batch is applied and settled, the dirty nodes owns accepts are
// rebuilt (nil = all), and dep is rebound to the repaired plane. The
// shard calls it behind its epoch fence with batches in sequence order.
func (r *Replica) RepairHook(dep *Deployment, owns func(NodeID) bool) func(uint64, []ChurnEvent) error {
	return func(seq uint64, events []ChurnEvent) error {
		for _, ev := range events {
			if err := r.Apply(ev); err != nil {
				return fmt.Errorf("churn batch %d: %w", seq, err)
			}
		}
		dirty, err := r.Settle()
		if err == nil {
			_, err = r.RebuildNodesFor(dirty, owns)
		}
		if err != nil {
			return fmt.Errorf("churn batch %d: %w", seq, err)
		}
		dep.Rebind(r.Plane())
		return nil
	}
}

// CertifyIdentical reports whether two forwarding planes carry identical
// routing state: both are decomposed into canonical per-node LocalState
// (sorted dictionaries, value tables) and compared bit for bit, along
// with the shared O(1) parameters. Planes that pass forward every packet
// identically.
func CertifyIdentical(a, b ForwardingPlane) error {
	sa, la, err := core.Decompose(a)
	if err != nil {
		return err
	}
	sb, lb, err := core.Decompose(b)
	if err != nil {
		return err
	}
	if sa.Kind != sb.Kind {
		return fmt.Errorf("rtroute: kind mismatch: %v vs %v", sa.Kind, sb.Kind)
	}
	if !reflect.DeepEqual(sa.Names, sb.Names) {
		return fmt.Errorf("rtroute: namings differ")
	}
	if sa.K != sb.K || sa.Levels != sb.Levels || sa.ViaSource != sb.ViaSource || sa.DirectReturn != sb.DirectReturn {
		return fmt.Errorf("rtroute: shared parameters differ")
	}
	if len(la) != len(lb) {
		return fmt.Errorf("rtroute: %d vs %d local states", len(la), len(lb))
	}
	for v := range la {
		if !reflect.DeepEqual(la[v], lb[v]) {
			return fmt.Errorf("rtroute: node %d local state differs", v)
		}
	}
	return nil
}
