// Benchmarks regenerating the paper's figure/table set. Each benchmark
// maps to a row of DESIGN.md's experiment index (E1-E11); routing
// benchmarks report measured stretch as a custom metric next to ns/op so
// the paper's numbers and the implementation's cost appear together.
package rtroute

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rtroute/internal/blocks"
	"rtroute/internal/cluster"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
	"rtroute/internal/tree"
)

// benchSystem builds a shared 128-node system for routing benchmarks.
func benchSystem(b *testing.B, seed int64, n int) *System {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := RandomSC(n, 4*n, 8, rng)
	sys, err := NewSystem(g, RandomNaming(n, rng))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchRoundtrips(b *testing.B, sys *System, sch Scheme) {
	b.Helper()
	n := sys.Graph.N()
	rng := rand.New(rand.NewSource(99))
	type pair struct{ s, d int32 }
	pairs := make([]pair, 1024)
	for i := range pairs {
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		pairs[i] = pair{sys.Naming.Name(int32(u)), sys.Naming.Name(int32(v))}
	}
	var totalStretch float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		tr, err := sch.Roundtrip(p.s, p.d)
		if err != nil {
			b.Fatal(err)
		}
		totalStretch += sys.Stretch(p.s, p.d, tr)
	}
	b.ReportMetric(totalStretch/float64(b.N), "stretch/op")
	b.ReportMetric(float64(sch.MaxTableWords()), "maxTblWords")
}

// BenchmarkFig1RTZBaseline is E1's name-dependent baseline row ([35]).
func BenchmarkFig1RTZBaseline(b *testing.B) {
	sys := benchSystem(b, 1, 128)
	rng := rand.New(rand.NewSource(2))
	sub, err := rtz.New(sys.Graph, sys.Metric, rng, rtz.Config{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := sys.Graph.N()
	var totalStretch float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(i % n)
		v := graph.NodeID((i*7 + 1) % n)
		if u == v {
			v = (v + 1) % graph.NodeID(n)
		}
		w, err := sub.Roundtrip(u, v)
		if err != nil {
			b.Fatal(err)
		}
		totalStretch += float64(w) / float64(sys.Metric.R(u, v))
	}
	b.ReportMetric(totalStretch/float64(b.N), "stretch/op")
	b.ReportMetric(float64(sub.MaxTableWords()), "maxTblWords")
}

// BenchmarkFig1Stretch6Roundtrip is E1/E3: the §2 scheme's routing cost
// and measured stretch (bound 6).
func BenchmarkFig1Stretch6Roundtrip(b *testing.B) {
	sys := benchSystem(b, 3, 128)
	sch, err := sys.Build(StretchSix, WithSeed(4))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

// BenchmarkFig1ExStretchK2Roundtrip and K3 are E1/E4 rows (§3 scheme).
func BenchmarkFig1ExStretchK2Roundtrip(b *testing.B) {
	sys := benchSystem(b, 5, 128)
	sch, err := sys.Build(ExStretch, WithK(2), WithSeed(6))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

func BenchmarkFig1ExStretchK3Roundtrip(b *testing.B) {
	sys := benchSystem(b, 7, 128)
	sch, err := sys.Build(ExStretch, WithK(3), WithSeed(8))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

// BenchmarkFig1PolyK2Roundtrip is E1/E6 (§4 scheme, bound 8k^2+4k-4).
func BenchmarkFig1PolyK2Roundtrip(b *testing.B) {
	sys := benchSystem(b, 9, 128)
	sch, err := sys.Build(Polynomial, WithK(2))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

// BenchmarkBuildStretch6 measures §2 preprocessing (E3/E9) at n=96 and
// at the repository benchmark's shape (n=1024, 4n extra edges, dense
// oracle), where the parallel build stages and the ceil(sqrt n)-deep
// Init prefixes show.
func BenchmarkBuildStretch6(b *testing.B) {
	for _, n := range []int{96, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys := benchSystem(b, 11, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Build(StretchSix, WithSeed(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeployStretch6 measures Deploy — decomposing a built
// StretchSix into per-node LocalStates and reassembling the routers —
// at the repository benchmark's shape.
func BenchmarkDeployStretch6(b *testing.B) {
	b.Run("n=1024", func(b *testing.B) {
		sch, err := benchSystem(b, 11, 1024).Build(StretchSix, WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Deploy(sch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildExStretchK3 measures §3 preprocessing (E4).
func BenchmarkBuildExStretchK3(b *testing.B) {
	sys := benchSystem(b, 12, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Build(ExStretch, WithK(3), WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPolyK2 measures §4 preprocessing (E6).
func BenchmarkBuildPolyK2(b *testing.B) {
	sys := benchSystem(b, 13, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Build(Polynomial, WithK(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2BlockAssign is E2: the Lemma 1/4 randomized assignment
// with verification.
func BenchmarkFig2BlockAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	g := RandomSC(128, 512, 6, rng)
	m := AllPairs(g)
	space := rtmetric.New(g, m, nil)
	// Fill the neighborhood prefixes first, as the scheme builders do.
	space.Precompute(rtmetric.NeighborhoodSizes(g.N(), 2)[1], 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := blocks.Assign(space, 2, rand.New(rand.NewSource(int64(i))), blocks.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if a.MaxSetSize() == 0 {
			b.Fatal("empty assignment")
		}
	}
}

// BenchmarkTheorem10Cover is E5: the Figs. 7-8 cover construction.
func BenchmarkTheorem10Cover(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	g := RandomSC(128, 512, 6, rng)
	m := AllPairs(g)
	dm := func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cover.Build(g, dm, 3, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkBallGrowingCover is E10's ablation counterpart.
func BenchmarkBallGrowingCover(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	g := RandomSC(128, 512, 6, rng)
	m := AllPairs(g)
	dm := func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cover.BuildBallGrowing(g, dm, 3, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkLemma14TreeBuild measures fixed-port tree routing
// preprocessing over a full graph (Lemma 14 substrate).
func BenchmarkLemma14TreeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := RandomSC(256, 1024, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := tree.BuildDouble(g, graph.NodeID(i%g.N()), nil)
		if err != nil {
			b.Fatal(err)
		}
		if t.RTHeight() == 0 {
			b.Fatal("degenerate tree")
		}
	}
}

// BenchmarkLemma2RTZOneWay is E7: one-way routing on the stretch-3
// substrate, whose guarantee p(u,v) <= r(u,v)+d(u,v) drives §2's proof.
func BenchmarkLemma2RTZOneWay(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	g := RandomSC(128, 512, 8, rng)
	m := AllPairs(g)
	sub, err := rtz.New(g, m, rng, rtz.Config{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(i % n)
		v := graph.NodeID((i*13 + 5) % n)
		if u == v {
			v = (v + 1) % graph.NodeID(n)
		}
		if _, _, err := sub.Route(u, sub.LabelOf(v)); err != nil {
			b.Fatal(err)
		}
	}
}

func dijkstraGraph() *Graph {
	return RandomSC(1024, 8192, 16, rand.New(rand.NewSource(19)))
}

// BenchmarkDijkstra measures the shortest-path substrate (S1): the
// pooled one-shot entry point, which pays two owned-row copies per call.
func BenchmarkDijkstra(b *testing.B) {
	g := dijkstraGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := graph.Dijkstra(g, graph.NodeID(i%g.N()))
		if res.Dist[(i+1)%g.N()] >= graph.Inf {
			b.Fatal("unreachable in SC graph")
		}
	}
}

// BenchmarkDijkstraScratch measures the zero-allocation core (E13/S4):
// the same runs through one reused SSSPScratch, rows aliased not copied.
func BenchmarkDijkstraScratch(b *testing.B) {
	g := dijkstraGraph()
	s := graph.NewSSSPScratch(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Dijkstra(g, graph.NodeID(i%g.N()))
		if res.Dist[(i+1)%g.N()] >= graph.Inf {
			b.Fatal("unreachable in SC graph")
		}
	}
}

// BenchmarkAllPairs measures full metric construction (S1).
func BenchmarkAllPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	g := RandomSC(256, 1024, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := AllPairs(g)
		if m.RTDiam() == 0 {
			b.Fatal("degenerate metric")
		}
	}
}

// BenchmarkTheorem15Reduction is E8: the lower-bound analysis pass.
func BenchmarkTheorem15Reduction(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := Bidirect(RandomSC(24, 72, 4, rng))
	g.AssignPorts(rng.Intn)
	sys, err := NewSystem(g, RandomNaming(g.N(), rng))
	if err != nil {
		b.Fatal(err)
	}
	sch, err := sys.Build(StretchSix, WithSeed(22))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := AnalyzeLowerBound(sys, sch)
		if err != nil {
			b.Fatal(err)
		}
		if SummarizeLowerBound(reports).Pairs == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchmarkInitOrder measures the Init_v total-order computation (S2):
// the full order Init and Rank materialise, and the ceil(sqrt n)-deep
// prefix Neighborhood selects for the stretch-6 tables.
func BenchmarkInitOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g := RandomSC(512, 2048, 8, rng)
	m := AllPairs(g)
	sqrtN := rtmetric.NeighborhoodSizes(g.N(), 2)[1]
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			space := rtmetric.New(g, m, nil)
			if ord := space.Init(graph.NodeID(i % g.N())); len(ord) != g.N() {
				b.Fatal("bad order")
			}
		}
	})
	b.Run("prefix=sqrt(n)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			space := rtmetric.New(g, m, nil)
			if nb := space.Neighborhood(graph.NodeID(i%g.N()), sqrtN); len(nb) != sqrtN {
				b.Fatal("bad prefix")
			}
		}
	})
}

// BenchmarkMetricBuild compares the cost of standing up each
// DistanceOracle flavor on the same 512-node graph: the sequential dense
// matrix (the pre-refactor default), the parallel dense build (the new
// AllPairs default), and the lazy oracle driven through one full
// row sweep (2n Dijkstras, bounded cache) — the worst case a scheme
// build can demand of it.
func BenchmarkMetricBuild(b *testing.B) {
	// lazy-single-row measures the latency a cold point query actually
	// pays: one Dijkstra, versus the full n-Dijkstra dense build.
	b.Run("dense-sequential", benchMetricDenseSequential)
	b.Run("dense-parallel", benchMetricDenseParallel)
	b.Run("lazy-full-sweep", benchMetricLazyFullSweep)
	b.Run("lazy-single-row", benchMetricLazySingleRow)
}

func metricGraph() *Graph {
	return RandomSC(512, 2048, 8, rand.New(rand.NewSource(31)))
}

func benchMetricDenseSequential(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := graph.AllPairsSequential(g); m.N() != g.N() {
			b.Fatal("bad metric")
		}
	}
}

func benchMetricDenseParallel(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := graph.AllPairs(g); m.N() != g.N() {
			b.Fatal("bad metric")
		}
	}
}

// benchMetricLazyFullSweep drives the lazy oracle through a full 2n-row
// sweep at a 64-row cache — the worst case a scheme build can demand of
// it.
func benchMetricLazyFullSweep(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := graph.NewLazyOracle(g, 64)
		var sink graph.Dist
		for u := 0; u < g.N(); u++ {
			sink += o.FromSource(graph.NodeID(u))[0] + o.ToSink(graph.NodeID(u))[0]
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
}

func benchMetricLazySingleRow(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := graph.NewLazyOracle(g, 2)
		if o.FromSource(graph.NodeID(i % g.N()))[0] < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkEdgeByPort compares the per-hop port-resolution cost across
// generations of the lookup: the O(degree) linear scan, the sealed O(1)
// tables behind EdgeByPort ("csr" sub-benchmark name kept for trajectory
// continuity — adversarial labels exercise the open-addressed path,
// "dense" the flat-table path), and the O(1) pair hash.
func BenchmarkEdgeByPort(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	g := RandomSC(1024, 16*1024, 8, rng)
	g.AssignPorts(rng.Intn)
	// Collect one valid (node, port) probe per node.
	probes := make([]struct {
		u NodeID
		p graph.PortID
	}, g.N())
	for u := 0; u < g.N(); u++ {
		edges := g.Out(NodeID(u))
		probes[u].u = NodeID(u)
		probes[u].p = edges[len(edges)-1].Port
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr := probes[i%len(probes)]
			found := false
			for _, e := range g.Out(pr.u) {
				if e.Port == pr.p {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("probe port missing")
			}
		}
	})
	// "csr" (adversarial labels -> hashed tables; name kept for
	// trajectory continuity) and "dense" (contiguous labels -> flat
	// tables).
	b.Run("csr", benchEdgeByPortAdversarial)
	b.Run("dense", benchEdgeByPortDense)
	b.Run("portto-hash", func(b *testing.B) {
		// The companion O(1) pair lookup used by table construction.
		targets := make([]NodeID, len(probes))
		for u := range targets {
			targets[u] = g.Out(NodeID(u))[0].To
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := NodeID(i % len(targets))
			if _, ok := g.PortTo(u, targets[u]); !ok {
				b.Fatal("edge missing")
			}
		}
	})
}

// benchEdgeByPortAdversarial resolves ports on a graph whose labels were
// scattered over [0, 4n) by AssignPorts: the open-addressed path.
func benchEdgeByPortAdversarial(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	g := graph.RandomSC(1024, 16*1024, 8, rng)
	benchEdgeByPort(b, g)
}

// benchEdgeByPortDense resolves ports on a graph with the default
// contiguous per-node labels: the flat dense-table path.
func benchEdgeByPortDense(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	adv := graph.RandomSC(1024, 16*1024, 8, rng)
	// Same topology, default contiguous labels (AddEdge order).
	g := graph.New(adv.N())
	for u := 0; u < adv.N(); u++ {
		for _, e := range adv.Out(graph.NodeID(u)) {
			g.MustAddEdge(graph.NodeID(u), e.To, e.Weight)
		}
	}
	benchEdgeByPort(b, g)
}

// benchEdgeByPort probes the public per-hop surface (Graph.EdgeByPort,
// including its per-call index load) so the rows stay comparable with
// the historical BenchmarkEdgeByPort trajectory; the PortTable-hoisted
// path is what the traffic row measures end-to-end.
func benchEdgeByPort(b *testing.B, g *graph.Graph) {
	n := g.N()
	probes := make([]struct {
		u graph.NodeID
		p graph.PortID
	}, n)
	for u := 0; u < n; u++ {
		edges := g.Out(graph.NodeID(u))
		probes[u].u = graph.NodeID(u)
		probes[u].p = edges[len(edges)-1].Port
	}
	g.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := probes[i%n]
		if _, ok := g.EdgeByPort(pr.u, pr.p); !ok {
			b.Fatal("probe port missing")
		}
	}
}

// BenchmarkTrafficThroughput is scaling study S3: serving rate of one
// shared compiled StretchSix plane as the worker count grows. Each
// iteration is ONE routed roundtrip; packets/s is reported as a custom
// metric. On a single-core host the workers=2,4 rows measure scheduling
// overhead rather than speedup — run on a multicore box for the scaling
// curve.
func BenchmarkTrafficThroughput(b *testing.B) {
	sys := benchSystem(b, 1, 256)
	s6, err := sys.Build(StretchSix, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	// Compile once, outside every timed region; traffic.Run directly
	// (not ServeTraffic) so the nil Oracle skips the stretch post-pass
	// and the measurement is pure serving throughput.
	pl, err := traffic.Compile(s6)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			res, err := traffic.Run(pl, traffic.Config{
				Workers:  workers,
				Packets:  int64(b.N),
				Seed:     1,
				Workload: traffic.Spec{Kind: traffic.Zipf},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PacketsPerSec(), "packets/s")
			b.ReportMetric(res.HopsPerSec(), "hops/s")
		})
	}
}

// benchStretchSix builds the shared 256-node StretchSix instance the
// serving benchmarks run (BenchmarkTrafficThroughput's plane).
func benchStretchSix(b *testing.B) Scheme {
	s6, err := benchSystem(b, 1, 256).Build(StretchSix, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	return s6
}

// benchDeployment is benchStretchSix restored from its wire snapshot:
// per-node Router dispatch on every hop.
func benchDeployment(b *testing.B) *Deployment {
	blob, err := MarshalScheme(benchStretchSix(b))
	if err != nil {
		b.Fatal(err)
	}
	dep, err := UnmarshalScheme(blob)
	if err != nil {
		b.Fatal(err)
	}
	return dep
}

// BenchmarkMarshalScheme measures full-scheme snapshot encoding
// (256-node StretchSix), reporting the blob size alongside ns/op.
func BenchmarkMarshalScheme(b *testing.B) {
	s6 := benchStretchSix(b)
	blob, err := MarshalScheme(s6)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportMetric(float64(len(blob)), "blobBytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalScheme(s6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeploymentForward serves traffic through a wire-restored
// per-node-Router Deployment; the PR4 bar is within 10% of the
// monolithic compiled plane (BenchmarkTrafficThroughput workers=1).
func BenchmarkDeploymentForward(b *testing.B) {
	pl, err := traffic.Compile(benchDeployment(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := traffic.Run(pl, traffic.Config{
		Workers:  1,
		Packets:  int64(b.N),
		Seed:     1,
		Workload: traffic.Spec{Kind: traffic.Zipf},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.PacketsPerSec(), "packets/s")
	b.ReportMetric(res.HopsPerSec(), "hops/s")
}

// BenchmarkClusterThroughput is scaling study S6: the same restored
// Deployment sharded across an 8-shard channel-bus cluster, every
// boundary-crossing hop shipped as a flight frame — the E15 serving
// row. Cross-shard frames per roundtrip is reported alongside the
// rates.
func BenchmarkClusterThroughput(b *testing.B) { benchCluster(b, false) }

// BenchmarkClusterTelemetry is the identical run with the telemetry
// plane attached at rtserve defaults (sampled stage timing, heat
// sketches, flight recorder armed) — measured against the row above,
// it is the observability overhead (E16 acceptance: within a few
// percent).
func BenchmarkClusterTelemetry(b *testing.B) { benchCluster(b, true) }

func benchCluster(b *testing.B, sink bool) {
	dep := benchDeployment(b)
	cfg := cluster.Config{
		Shards:    8,
		Placement: cluster.RTZAligned,
		Packets:   int64(b.N),
		Seed:      1,
		InFlight:  4096,
		Workload:  traffic.Spec{Kind: traffic.Zipf},
	}
	if sink {
		shape := cfg.SinkShape()
		shape.TraceEvery = 1024
		cfg.Sink = telemetry.New(shape)
	}
	// Collect the build-time garbage (scheme construction, all-pairs
	// distances) before timing: leftover heap from earlier runs in the
	// same process otherwise inflates GC pressure for later ones.
	runtime.GC()
	b.ResetTimer()
	res, err := cluster.Run(dep, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.PacketsPerSec(), "packets/s")
	b.ReportMetric(res.HopsPerSec(), "hops/s")
	if res.Packets > 0 {
		b.ReportMetric(res.CrossingsPerRT(), "xframes/rt")
		b.ReportMetric(res.AllocsPerRT(), "allocs/rt")
	}
	b.ReportMetric(res.WindowOccupancy, "window-occ")
}
