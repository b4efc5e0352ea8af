package rtroute

import (
	"fmt"
	"math/rand"

	"rtroute/internal/core"
	"rtroute/internal/rtz"
	"rtroute/internal/wire"
)

// SchemeKind selects which routing scheme System.Build constructs.
type SchemeKind = core.Kind

// Scheme kinds for Build. StretchSix, ExStretch and Polynomial are the
// paper's three TINN schemes; RTZStretch3 and HopSubstrate are the
// name-dependent substrate planes (servable baselines).
const (
	StretchSix   = core.KindStretchSix
	ExStretch    = core.KindExStretch
	Polynomial   = core.KindPolynomial
	RTZStretch3  = core.KindRTZ
	HopSubstrate = core.KindHop
)

// SubstrateOptions configures the stretch-3 substrate (center sampling).
type SubstrateOptions = rtz.Config

// BuildConfig collects every construction knob across all scheme kinds.
// Zero values select each scheme's defaults. Most callers should use
// Build with functional options instead of filling this struct
// directly.
type BuildConfig struct {
	// Seed drives all randomized construction (center sampling, block
	// assignment). Ignored by Polynomial, whose construction is
	// deterministic.
	Seed int64
	// K is the tradeoff parameter for ExStretch, Polynomial and
	// HopSubstrate (default 2).
	K int
	// CoverK overrides the hop substrate's sparse-cover parameter
	// (ExStretch only; defaults to K).
	CoverK int
	// ScaleBase is the cover scale ladder ratio (ExStretch, Polynomial,
	// HopSubstrate; default 2).
	ScaleBase float64
	// Variant selects the sparse-cover construction (default
	// Awerbuch-Peleg).
	Variant CoverVariant
	// Blocks configures the Lemma 1/4 dictionary assignment (StretchSix,
	// ExStretch).
	Blocks BlockOptions
	// Substrate configures the stretch-3 substrate (StretchSix,
	// RTZStretch3).
	Substrate SubstrateOptions
	// ViaSource selects the §2.2 StretchSix variant that fetches the
	// destination's address back to the source before routing.
	ViaSource bool
	// DirectReturn selects the §3.5 ExStretch variant that carries the
	// source's globally valid label instead of the waypoint stack.
	DirectReturn bool
	// BuildWorkers is the worker count of construction (0 = GOMAXPROCS,
	// 1 = sequential). It governs the Init-order fill and the per-node
	// tables of the three TINN schemes, and the substrate's center
	// trees, labels and clusters (StretchSix, RTZStretch3). The block
	// assignment and the incremental repair path stay sequential.
	// Output is identical for every value.
	BuildWorkers int
}

// BuildOption tunes one Build call.
type BuildOption func(*BuildConfig)

// WithSeed sets the construction seed.
func WithSeed(seed int64) BuildOption { return func(c *BuildConfig) { c.Seed = seed } }

// WithK sets the tradeoff parameter k >= 2.
func WithK(k int) BuildOption { return func(c *BuildConfig) { c.K = k } }

// WithCoverK overrides the hop substrate's cover parameter (ExStretch).
func WithCoverK(k int) BuildOption { return func(c *BuildConfig) { c.CoverK = k } }

// WithScaleBase sets the cover scale ladder ratio.
func WithScaleBase(base float64) BuildOption { return func(c *BuildConfig) { c.ScaleBase = base } }

// WithCoverVariant selects the sparse-cover construction.
func WithCoverVariant(v CoverVariant) BuildOption { return func(c *BuildConfig) { c.Variant = v } }

// WithBlocks configures the dictionary block assignment.
func WithBlocks(b BlockOptions) BuildOption { return func(c *BuildConfig) { c.Blocks = b } }

// WithSubstrate configures the stretch-3 substrate.
func WithSubstrate(s SubstrateOptions) BuildOption { return func(c *BuildConfig) { c.Substrate = s } }

// WithViaSource selects the §2.2 StretchSix variant.
func WithViaSource() BuildOption { return func(c *BuildConfig) { c.ViaSource = true } }

// WithDirectReturn selects the §3.5 ExStretch variant.
func WithDirectReturn() BuildOption { return func(c *BuildConfig) { c.DirectReturn = true } }

// WithBuildWorkers sets construction parallelism.
func WithBuildWorkers(w int) BuildOption { return func(c *BuildConfig) { c.BuildWorkers = w } }

// Build constructs a routing scheme of the given kind over the system's
// graph, oracle and naming. It is the single construction entry point:
// every knob is available as a functional option, and every kind — the
// three TINN schemes and the two substrate baselines — comes back as a
// Scheme (forwarding plane + roundtrip tracer + table accounting).
//
//	s6, _  := sys.Build(rtroute.StretchSix, rtroute.WithSeed(42))
//	ex, _  := sys.Build(rtroute.ExStretch, rtroute.WithK(3), rtroute.WithSeed(42))
//	p, _   := sys.Build(rtroute.Polynomial, rtroute.WithK(2))
//	rtz, _ := sys.Build(rtroute.RTZStretch3, rtroute.WithSeed(42))
func (s *System) Build(kind SchemeKind, opts ...BuildOption) (Scheme, error) {
	cfg := BuildConfig{K: 2}
	for _, o := range opts {
		o(&cfg)
	}
	return s.BuildWith(kind, cfg)
}

// BuildWith is Build with an explicit configuration struct, for callers
// that assemble configurations programmatically.
func (s *System) BuildWith(kind SchemeKind, cfg BuildConfig) (Scheme, error) {
	if cfg.K == 0 {
		cfg.K = 2
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(cfg.Seed)) }
	switch kind {
	case StretchSix:
		return core.NewStretchSix(s.Graph, s.Metric, s.Naming, rng(), core.Stretch6Config{
			Blocks:       cfg.Blocks,
			Substrate:    cfg.Substrate,
			ViaSource:    cfg.ViaSource,
			BuildWorkers: cfg.BuildWorkers,
		})
	case ExStretch:
		return core.NewExStretch(s.Graph, s.Metric, s.Naming, rng(), core.ExStretchConfig{
			K:            cfg.K,
			CoverK:       cfg.CoverK,
			ScaleBase:    cfg.ScaleBase,
			Variant:      cfg.Variant,
			Blocks:       cfg.Blocks,
			DirectReturn: cfg.DirectReturn,
			BuildWorkers: cfg.BuildWorkers,
		})
	case Polynomial:
		return core.NewPolynomialStretch(s.Graph, s.Metric, s.Naming, core.PolyConfig{
			K:            cfg.K,
			ScaleBase:    cfg.ScaleBase,
			Variant:      cfg.Variant,
			BuildWorkers: cfg.BuildWorkers,
		})
	case RTZStretch3:
		sub, err := rtz.New(s.Graph, s.Metric, rng(), cfg.Substrate, cfg.BuildWorkers)
		if err != nil {
			return nil, err
		}
		return core.NewRTZPlane(sub, s.Naming)
	case HopSubstrate:
		base := cfg.ScaleBase
		if base <= 1 {
			base = 2
		}
		hop, err := rtz.NewHop(s.Graph, s.Metric, cfg.K, base, cfg.Variant)
		if err != nil {
			return nil, err
		}
		return core.NewHopPlane(hop, s.Naming)
	default:
		return nil, fmt.Errorf("rtroute: unknown scheme kind %v", kind)
	}
}

// Deployment is a scheme reassembled from per-node LocalState as
// per-node Routers: it implements the same forwarding-plane contract as
// a monolithic scheme (sim/traffic drive it identically) while every
// Forward goes through the addressed node's Router alone. Snapshots
// restored by UnmarshalScheme come back as Deployments carrying their
// per-node encoded byte sizes.
type Deployment = core.Deployment

// Router is one node's forwarding agent within a Deployment.
type Router = core.Router

// Deploy decomposes a built scheme into per-node local states and
// reassembles it as a Deployment, certifying that node-local state plus
// the packet header suffice to forward.
func Deploy(p ForwardingPlane) (*Deployment, error) { return core.Deploy(p) }

// MarshalScheme encodes a built scheme (or Deployment) as a
// self-contained versioned binary snapshot: graph, naming, shared
// parameters, and one length-prefixed section per node.
func MarshalScheme(p ForwardingPlane) ([]byte, error) { return wire.MarshalScheme(p) }

// MarshalSchemeSizes is MarshalScheme returning each node's encoded
// section length alongside the blob (one encode pass).
func MarshalSchemeSizes(p ForwardingPlane) ([]byte, []int, error) {
	return wire.MarshalSchemeSizes(p)
}

// UnmarshalScheme restores a snapshot as a Deployment of per-node
// routers, route-identical to the scheme that was marshaled; per-node
// encoded sizes are available via Deployment.EncodedSize.
func UnmarshalScheme(data []byte) (*Deployment, error) { return wire.UnmarshalScheme(data) }

// MarshalHeader encodes a packet header as a self-contained byte packet.
func MarshalHeader(h Header) ([]byte, error) { return wire.MarshalHeader(h) }

// UnmarshalHeader decodes a header packet.
func UnmarshalHeader(data []byte) (Header, error) { return wire.UnmarshalHeader(data) }

// EncodedNodeSizes returns every node's local routing state encoded in
// wire bytes — the empirical per-node space bound of Theorems 6 and 11.
func EncodedNodeSizes(p ForwardingPlane) ([]int, error) { return wire.NodeSizes(p) }
