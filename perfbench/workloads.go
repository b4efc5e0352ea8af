package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"rtroute"
	"rtroute/internal/cluster"
	"rtroute/internal/sim"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

// workload is one named input set: the graph it builds, the pair
// distribution it serves and the end-to-end measurement it runs.
type workload struct {
	name  string
	shape shape
	// measure runs the end-to-end measurement (tracing off).
	measure func(*run) error
}

// shape fixes a workload's graph, oracle and traffic.
type shape struct {
	n        int
	extra    int // random edges beyond the Hamiltonian cycle
	maxW     rtroute.Dist
	remap    bool // weights remapped into [33, 64] (the E17 shape)
	lazy     bool // lazy distance oracle instead of the dense matrix
	pairs    rtroute.TrafficWorkload
	deploy   bool // decompose into per-node Routers (the sharded workloads)
	shards   int
	place    rtroute.PlacementPolicy
	workers  int // engine workers / per-shard workers
	chunk    int64
	instance int // set-ups per run; setup_s is their median
}

var zipf09 = rtroute.TrafficWorkload{Kind: rtroute.WorkloadZipf, ZipfTheta: 0.9}

var nproc = runtime.GOMAXPROCS(0)

// The four workloads. Why each exists is in README.md; in short:
// fabric-zipf loads the shard fabric, engine-uniform the per-hop
// forwarding on tables larger than L2, churn-fire the repair path and
// tcp-rpc the socket transport and client-observed latency.
var workloads = []*workload{
	{name: "fabric-zipf", shape: shape{
		n: 1024, extra: 4 * 1024, maxW: 8, pairs: zipf09, deploy: true,
		shards: 8, place: rtroute.PlaceContiguous, workers: 1, chunk: 60_000, instance: 3,
	}, measure: measureFabric},
	{name: "engine-uniform", shape: shape{
		n: 1024, extra: 4 * 1024, maxW: 8, workers: nproc, chunk: 150_000, instance: 3,
	}, measure: measureEngine},
	{name: "churn-fire", shape: shape{
		n: 256, extra: 16 * 256, maxW: 64, remap: true, lazy: true, pairs: zipf09,
		// One shard: every roundtrip then runs out and back inside one
		// read-fenced batch, so it sees a single epoch and the fire
		// window loses nothing. Across shards a roundtrip can span a
		// repair and fail typed, in numbers set by thread timing.
		shards: 1, place: rtroute.PlaceContiguous, workers: 1, instance: 5,
	}, measure: measureChurn},
	{name: "tcp-rpc", shape: shape{
		n: 1024, extra: 4 * 1024, maxW: 8, deploy: true,
		shards: 2, place: rtroute.PlaceRTZAligned, workers: 1, chunk: 500, instance: 3,
	}, measure: measureTCP},
}

// churn-fire's event schedule per RunChurnCluster call.
const (
	churnBatches        = 6
	churnEventsPerBatch = 4
	churnFirePackets    = 20000
	churnStablePackets  = 5000
)

// stretchSamples is the number of seeded pairs whose stretch is
// measured against the oracle on every instance.
const stretchSamples = 1000

// subSeed derives the i-th independent stream from a workload seed.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 2)
}

// instance is one set-up of a workload: graph, oracle, built plane.
type instance struct {
	seed int64
	sh   shape
	sys  *rtroute.System
	sch  rtroute.Scheme
	dep  *rtroute.Deployment // nil unless sh.deploy
	// plane is what the workload serves: dep when deployed, else sch.
	plane     rtroute.ForwardingPlane
	buildTook time.Duration
	// tc and cl are tcp-rpc's daemons and closed-loop connection.
	tc *tcpCluster
	cl *cluster.Client
}

// close stops the instance's daemons, if it has any.
func (in *instance) close() error {
	if in.tc == nil {
		return nil
	}
	in.cl.Close()
	return in.tc.close()
}

// newGraph builds the workload's seeded graph and naming.
func newGraph(sh shape, seed int64) (*rtroute.Graph, *rtroute.Naming, error) {
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(sh.n, sh.extra, sh.maxW, rng)
	if sh.remap {
		// With a max/min weight ratio under 2 no single edge dominates
		// its head's entry, so an event's affected set reflects real
		// path diversity (the E17 shape).
		for u := 0; u < sh.n; u++ {
			for _, e := range g.Out(rtroute.NodeID(u)) {
				if err := g.SetEdgeWeight(rtroute.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return g, rtroute.RandomNaming(sh.n, rng), nil
}

func newSystem(sh shape, g *rtroute.Graph, naming *rtroute.Naming) (*rtroute.System, error) {
	cfg := rtroute.SystemConfig{Metric: rtroute.MetricDense}
	if sh.lazy {
		cfg.Metric = rtroute.MetricLazy
	}
	return rtroute.NewSystemWith(g, naming, cfg)
}

// setup builds one instance: graph, oracle, scheme, then the deployment
// or the engine's compiled plane.
func setup(sh shape, seed int64) (*instance, error) {
	g, naming, err := newGraph(sh, seed)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(sh, g, naming)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sch, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithK(2))
	if err != nil {
		return nil, err
	}
	in := &instance{seed: seed, sh: sh, sys: sys, sch: sch, plane: sch, buildTook: time.Since(t0)}
	if sh.deploy {
		if in.dep, err = rtroute.Deploy(sch); err != nil {
			return nil, err
		}
		in.plane = in.dep
	} else if _, err := traffic.Compile(sch); err != nil {
		// The engine compiles on every ServeTraffic call; one compile
		// is the set-up a long-running server pays once.
		return nil, err
	}
	return in, nil
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// pairGen returns the workload's seeded pair stream.
func pairGen(sh shape, seed int64) (traffic.Generator, error) {
	wl, err := traffic.NewWorkload(sh.pairs, sh.n, seed)
	if err != nil {
		return nil, err
	}
	return wl.Generator(0), nil
}

// staticMetrics measures the plane's largest per-node table and the
// mean stretch of seeded sample roundtrips, gating every sample on the
// stretch bound.
func staticMetrics(r *run, plane rtroute.ForwardingPlane, oracle rtroute.Oracle, sh shape, seed int64) (bytesMax, stretchMean float64, err error) {
	sizes, err := rtroute.EncodedNodeSizes(plane)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range sizes {
		bytesMax = max(bytesMax, float64(s))
	}
	gen, err := pairGen(sh, seed)
	if err != nil {
		return 0, 0, err
	}
	var h sim.Header
	var sum float64
	for i := 0; i < stretchSamples; i++ {
		src, dst := gen.Next()
		var out, back sim.Flight
		out, back, h, err = sim.RoundtripFlightReusing(plane, h, src, dst, 0)
		if err != nil {
			return 0, 0, err
		}
		rd := oracle.R(plane.NodeOf(src), plane.NodeOf(dst))
		st := 1.0
		if rd > 0 {
			st = float64(out.Weight+back.Weight) / float64(rd)
		}
		r.gate(gateStretch(src, dst, st))
		sum += st
	}
	return bytesMax, sum / stretchSamples, nil
}

// serveFn serves one instance until the deadline, returning its ledger
// and its rate samples.
type serveFn func(r *run, in *instance, deadline time.Time) (accounting, []float64, error)

// servingRun is the shared shape of the three serving workloads:
// set-ups, each timed as one setup_s sample (prepare included) and
// followed by an equal slice of closed-loop serving, then the plane's
// table sizes and sampled stretch.
func servingRun(r *run, prepare func(*instance) error, serve serveFn) error {
	sh := r.workload.shape
	var setups, heaps, rates, bytes, stretch []float64
	var acc accounting
	for i := 0; i < sh.instance; i++ {
		start := time.Now()
		in, err := setup(sh, subSeed(r.seed, i))
		if err == nil && prepare != nil {
			err = prepare(in)
		}
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		heaps = append(heaps, liveHeapMiB())
		a, rs, err := serve(r, in, time.Now().Add(r.slice(sh.instance)))
		if cerr := in.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		acc.issued += a.issued
		acc.served += a.served
		rates = append(rates, rs...)
		b, s, err := staticMetrics(r, in.plane, in.sys.Metric, sh, subSeed(in.seed, -1))
		if err != nil {
			return err
		}
		bytes = append(bytes, b)
		stretch = append(stretch, s)
	}
	r.gate(gateAccounting(acc))
	r.count(acc)
	r.set("setup_s", "s", median(setups))
	r.set("rt_per_s", "rt/s", median(rates))
	r.set("rt_served_frac", "fraction", float64(acc.served)/float64(acc.issued))
	r.set("table_bytes_max", "B/node", mean(bytes))
	r.set("stretch_mean", "ratio", mean(stretch))
	r.set("heap_mb", "MiB", median(heaps))
	return nil
}

// chunks serves fixed-size chunks until the deadline, at least three,
// one rate sample per chunk.
func chunks(in *instance, deadline time.Time, serve func(packets, seed int64) (served int64, rate float64, err error)) (accounting, []float64, error) {
	var acc accounting
	var rates []float64
	for c := 0; c < 3 || time.Now().Before(deadline); c++ {
		served, rate, err := serve(in.sh.chunk, subSeed(in.seed, 100+c))
		if err != nil {
			return acc, rates, err
		}
		acc.issued += in.sh.chunk
		acc.served += served
		rates = append(rates, rate)
	}
	return acc, rates, nil
}

func clusterConfig(sh shape, packets, seed int64) rtroute.ClusterConfig {
	return rtroute.ClusterConfig{
		Shards: sh.shards, Workers: sh.workers, Placement: sh.place,
		Packets: packets, Seed: seed, Workload: sh.pairs,
		Injectors: nproc, SampleEvery: 101,
	}
}

func measureFabric(r *run) error {
	return servingRun(r, nil, func(r *run, in *instance, deadline time.Time) (accounting, []float64, error) {
		return chunks(in, deadline, func(packets, seed int64) (int64, float64, error) {
			res, err := in.sys.ServeCluster(in.dep, clusterConfig(in.sh, packets, seed))
			if err != nil {
				return 0, 0, err
			}
			return res.Packets, res.PacketsPerSec(), nil
		})
	})
}

func trafficConfig(sh shape, workers int, packets, seed int64) rtroute.TrafficConfig {
	return rtroute.TrafficConfig{
		Workers: workers, Packets: packets, Seed: seed, Workload: sh.pairs, SampleEvery: 101,
	}
}

func measureEngine(r *run) error {
	return servingRun(r, nil, func(r *run, in *instance, deadline time.Time) (accounting, []float64, error) {
		return chunks(in, deadline, func(packets, seed int64) (int64, float64, error) {
			res, err := in.sys.ServeTraffic(in.sch, trafficConfig(in.sh, in.sh.workers, packets, seed))
			if err != nil {
				return 0, 0, err
			}
			return res.Packets, res.PacketsPerSec(), nil
		})
	})
}

// churnRun is one RunChurnCluster call on a fresh churn-fire instance.
type churnRun struct {
	res      *rtroute.ChurnClusterResult
	setup    time.Duration // graph, oracle, 8 replicas + reference, shard start
	heapMiB  float64
	bytesMax float64
	stretch  float64
}

// runChurn builds a churn-fire instance and runs the certified E19
// loop on it. The table-size and stretch sample come from a plane
// built on a clone of the graph, outside the timed set-up, so the
// system's own oracle cache starts cold.
func runChurn(r *run, sh shape, seed int64, batches int) (*churnRun, error) {
	start := time.Now()
	g, naming, err := newGraph(sh, seed)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(sh, g, naming)
	if err != nil {
		return nil, err
	}
	graphTook := time.Since(start)

	side, err := newSystem(sh, g.Clone(), naming)
	if err != nil {
		return nil, err
	}
	ref, err := side.Build(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithK(2))
	if err != nil {
		return nil, err
	}
	cr := &churnRun{heapMiB: liveHeapMiB()}
	if cr.bytesMax, cr.stretch, err = staticMetrics(r, ref, side.Metric, sh, subSeed(seed, -1)); err != nil {
		return nil, err
	}

	call := time.Now()
	cr.res, err = rtroute.RunChurnCluster(sys, churnConfig(sh, seed, batches))
	if err != nil {
		return nil, err
	}
	cr.setup = graphTook + time.Since(call) - time.Duration(cr.res.ElapsedNs)
	r.gate(gateCertified(cr.res.Certified, cr.res.FromScratch))
	a := accounting{issued: cr.res.Issued, served: cr.res.Served, drops: cr.res.Drops, misroutes: cr.res.Misroutes}
	r.gate(gateAccounting(a))
	r.count(a)
	return cr, nil
}

func churnConfig(sh shape, seed int64, batches int) rtroute.ChurnClusterConfig {
	return rtroute.ChurnClusterConfig{
		Kind: rtroute.StretchSix, Build: rtroute.BuildConfig{Seed: seed, K: 2},
		Shards: sh.shards, Workers: sh.workers, Placement: sh.place,
		ChurnSeed: subSeed(seed, 7), Batches: batches, EventsPerBatch: churnEventsPerBatch,
		FirePackets: churnFirePackets, StablePackets: churnStablePackets,
		MinWeight: 33, MaxWeight: 64, Certify: true, Workload: sh.pairs,
	}
}

func measureChurn(r *run) error {
	sh := r.workload.shape
	var setups, heaps, bytes, stretch []float64
	var fireIssued, fireNs, issued, served int64
	start := time.Now()
	for i := 0; i < sh.instance || time.Since(start).Seconds() < r.seconds; i++ {
		cr, err := runChurn(r, sh, subSeed(r.seed, i), churnBatches)
		if err != nil {
			return err
		}
		setups = append(setups, cr.setup.Seconds())
		heaps = append(heaps, cr.heapMiB)
		bytes = append(bytes, cr.bytesMax)
		stretch = append(stretch, cr.stretch)
		for _, b := range cr.res.BatchRows {
			fireIssued += b.FireIssued
			fireNs += b.FireNs
		}
		issued += cr.res.Issued
		served += cr.res.Served
	}
	r.set("setup_s", "s", median(setups))
	r.set("rt_per_s", "rt/s", float64(fireIssued)/(float64(fireNs)/1e9))
	r.set("rt_served_frac", "fraction", float64(served)/float64(issued))
	r.set("table_bytes_max", "B/node", mean(bytes))
	r.set("stretch_mean", "ratio", mean(stretch))
	r.set("heap_mb", "MiB", median(heaps))
	return nil
}

// tcpCluster is an in-process set of shard daemons on loopback TCP.
type tcpCluster struct {
	addrs []string
	trs   []*cluster.TCPTransport
	wg    sync.WaitGroup
	errs  []error
}

// startTCP starts one daemon per placement shard, each serving its
// slice of dep over its own listener.
func startTCP(dep *rtroute.Deployment, sh shape) (*tcpCluster, error) {
	place, err := rtroute.NewPlacement(dep, sh.shards, sh.place)
	if err != nil {
		return nil, err
	}
	dep.Graph().Seal()
	tc := &tcpCluster{addrs: make([]string, sh.shards), errs: make([]error, sh.shards)}
	lns := make([]net.Listener, sh.shards)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, err
		}
		tc.addrs[i] = lns[i].Addr().String()
	}
	for i := range lns {
		tr := cluster.NewTCPTransport(i, lns[i], tc.addrs)
		tc.trs = append(tc.trs, tr)
		view, err := dep.ShardView(i, place.Owner)
		if err != nil {
			tc.close()
			return nil, err
		}
		shard := cluster.NewShard(view, place, tr, cluster.Options{Workers: sh.workers})
		tc.wg.Add(1)
		go func(i int) {
			defer tc.wg.Done()
			tc.errs[i] = shard.Serve()
		}(i)
	}
	return tc, nil
}

// close stops every daemon and waits for them, returning the first
// serving error.
func (tc *tcpCluster) close() error {
	for _, tr := range tc.trs {
		tr.Close()
	}
	tc.wg.Wait()
	for i, err := range tc.errs {
		if err != nil {
			return fmt.Errorf("tcp shard %d: %w", i, err)
		}
	}
	return nil
}

// tcpCheckEvery is the stride of calls whose leg totals are replayed on
// the tracer after the phase.
const tcpCheckEvery = 50

type tcpCall struct {
	src, dst  int32
	out, back wire.LegTotals
}

// closedLoop makes one-outstanding Roundtrip calls on cl until the
// deadline, returning per-call latencies (µs), per-chunk call rates and
// the sampled calls to replay.
func closedLoop(cl *cluster.Client, gen traffic.Generator, chunk int, deadline time.Time) (lat, rates []float64, checks []tcpCall, acc accounting, err error) {
	for time.Now().Before(deadline) || len(rates) < 3 {
		cstart := time.Now()
		for k := 0; k < chunk; k++ {
			src, dst := gen.Next()
			t0 := time.Now()
			out, back, err := cl.Roundtrip(src, dst)
			acc.issued++
			if err != nil {
				acc.errors++
				return lat, rates, checks, acc, fmt.Errorf("tcp roundtrip %d->%d: %w", src, dst, err)
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			acc.served++
			if acc.issued%tcpCheckEvery == 0 {
				checks = append(checks, tcpCall{src, dst, out, back})
			}
		}
		rates = append(rates, float64(chunk)/time.Since(cstart).Seconds())
	}
	return lat, rates, checks, acc, nil
}

// replayChecks gates every sampled call against sim.Roundtrip on the
// same deployment.
func replayChecks(r *run, dep *rtroute.Deployment, checks []tcpCall) error {
	for _, c := range checks {
		tr, err := sim.Roundtrip(dep, c.src, c.dst, 0)
		if err != nil {
			return err
		}
		want := func(t *sim.Trace) wire.LegTotals {
			return wire.LegTotals{Hops: int32(t.Hops), Weight: t.Weight}
		}
		r.gate(gateLegTotals(c.src, c.dst, c.out, c.back, want(tr.Out), want(tr.Back)))
	}
	return nil
}

// dialTCP starts the instance's daemons and dials the closed-loop
// connection; both belong to tcp-rpc's set-up.
func dialTCP(in *instance) error {
	tc, err := startTCP(in.dep, in.sh)
	if err != nil {
		return err
	}
	cl, err := cluster.DialClient(tc.addrs[0])
	if err != nil {
		tc.close()
		return err
	}
	in.tc, in.cl = tc, cl
	return nil
}

func measureTCP(r *run) error {
	return servingRun(r, dialTCP, func(r *run, in *instance, deadline time.Time) (accounting, []float64, error) {
		gen, err := pairGen(in.sh, subSeed(in.seed, 100))
		if err != nil {
			return accounting{}, nil, err
		}
		_, rates, checks, acc, err := closedLoop(in.cl, gen, int(in.sh.chunk), deadline)
		if err != nil {
			return acc, rates, err
		}
		return acc, rates, replayChecks(r, in.dep, checks)
	})
}
