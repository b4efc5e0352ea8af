package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"rtroute"
	"rtroute/internal/churn"
	"rtroute/internal/cluster"
	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

// traceLayers is the traced run. It sets up one instance of the
// workload and times calls into each layer's exported functions on
// that instance's graph, plane and pair stream. The churn-family layers
// (churn, maintain, clusterchurn) need a maintained plane under seeded
// events, so every workload measures them on the churn-fire
// configuration of the same seed. The end-to-end metrics are never
// taken from this run.
func traceLayers(r *run) error {
	sh := r.workload.shape
	in, err := setup(sh, subSeed(r.seed, 0))
	if err != nil {
		return err
	}
	r.set("core.build_s", "s", in.buildTook.Seconds())
	t0 := time.Now()
	if _, err := traffic.Compile(in.sch); err != nil {
		return err
	}
	r.set("traffic.compile_s", "s", time.Since(t0).Seconds())
	if in.dep == nil {
		if in.dep, err = rtroute.Deploy(in.sch); err != nil {
			return err
		}
	}
	steps := []func(*run, *instance) error{
		layerGraph, layerCore, layerSim, layerTraffic, layerWire, layerCluster, layerTCP,
	}
	for _, step := range steps {
		if err := step(r, in); err != nil {
			return err
		}
	}
	// The serving instance is dead here; collect it before the churn
	// layers time anything.
	runtime.GC()
	csh := workloadByName("churn-fire").shape
	return layerChurn(r, csh, subSeed(r.seed, 0))
}

// budget is the time each repeated layer measurement runs for.
func (r *run) budget() time.Duration { return r.slice(8) }

// tracePairs is the number of workload pairs the replay layers walk.
const tracePairs = 2000

func drawPairs(sh shape, seed int64, count int) ([]cluster.Pair, error) {
	gen, err := pairGen(sh, seed)
	if err != nil {
		return nil, err
	}
	pairs := make([]cluster.Pair, count)
	for i := range pairs {
		pairs[i].Src, pairs[i].Dst = gen.Next()
	}
	return pairs, nil
}

func layerGraph(r *run, in *instance) error {
	g := in.sys.Graph
	n := g.N()
	rng := rand.New(rand.NewSource(in.seed))
	sc := graph.NewSSSPScratch(n)
	var per []float64
	deadline := time.Now().Add(r.budget())
	for len(per) < 32 || time.Now().Before(deadline) {
		src := graph.NodeID(rng.Intn(n))
		t0 := time.Now()
		sc.Dijkstra(g, src)
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.set("graph.dijkstra_us", "us", median(per))

	t0 := time.Now()
	rtroute.AllPairs(g)
	r.set("graph.allpairs_s", "s", time.Since(t0).Seconds())

	// The lazy oracle's row cache under the workload's own pair stream.
	lo := rtroute.NewLazyOracle(g, 0)
	pairs, err := drawPairs(in.sh, subSeed(in.seed, 1), 4*tracePairs)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		lo.R(in.plane.NodeOf(p.Src), in.plane.NodeOf(p.Dst))
	}
	st := lo.Stats()
	r.set("graph.lazy_hit_ratio", "ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	return nil
}

// layerCore replays the workload's pairs hop by hop through the
// per-node Routers: a first pass records each roundtrip's forwarding
// nodes, the timed passes call only Router.Forward on them (plus one
// header reset and leg flip per roundtrip).
func layerCore(r *run, in *instance) error {
	pairs, err := drawPairs(in.sh, subSeed(in.seed, 2), tracePairs)
	if err != nil {
		return err
	}
	dep := in.dep
	ports := dep.Graph().PortTable()
	const flip = -1
	walks := make([][]graph.NodeID, len(pairs))
	var h sim.Header
	for i, p := range pairs {
		if h == nil {
			h, err = dep.NewHeader(p.Src, p.Dst)
		} else {
			err = dep.ResetHeader(h, p.Src, p.Dst)
		}
		if err != nil {
			return err
		}
		at, ret := dep.NodeOf(p.Src), false
		for {
			walks[i] = append(walks[i], at)
			port, delivered, err := dep.Router(at).Forward(h)
			if err != nil {
				return err
			}
			if delivered {
				if ret {
					break
				}
				if err := dep.BeginReturn(h); err != nil {
					return err
				}
				ret = true
				walks[i] = append(walks[i], flip)
				continue
			}
			e, ok := ports.EdgeByPort(at, port)
			if !ok {
				return fmt.Errorf("core replay: node %d has no port %d", at, port)
			}
			at = e.To
		}
	}
	var calls int64
	var took time.Duration
	deadline := time.Now().Add(r.budget())
	for calls == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i, p := range pairs {
			if err := dep.ResetHeader(h, p.Src, p.Dst); err != nil {
				return err
			}
			for _, at := range walks[i] {
				if at == flip {
					if err := dep.BeginReturn(h); err != nil {
						return err
					}
					continue
				}
				if _, _, err := dep.Router(at).Forward(h); err != nil {
					return err
				}
				calls++
			}
		}
		took += time.Since(t0)
	}
	r.set("core.forward_ns", "ns", float64(took.Nanoseconds())/float64(calls))
	return nil
}

func layerSim(r *run, in *instance) error {
	pairs, err := drawPairs(in.sh, subSeed(in.seed, 3), tracePairs)
	if err != nil {
		return err
	}
	var h sim.Header
	var hops, rts int64
	var took time.Duration
	deadline := time.Now().Add(r.budget())
	for rts == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		for _, p := range pairs {
			var out, back sim.Flight
			out, back, h, err = sim.RoundtripFlightReusing(in.sch, h, p.Src, p.Dst, 0)
			if err != nil {
				return err
			}
			hops += int64(out.Hops + back.Hops)
		}
		took += time.Since(t0)
		rts += int64(len(pairs))
	}
	r.set("sim.fly_ns_per_hop", "ns", float64(took.Nanoseconds())/float64(hops))
	r.set("sim.hops_per_rt", "count", float64(hops)/float64(rts))
	return nil
}

func layerTraffic(r *run, in *instance) error {
	var rates []float64
	deadline := time.Now().Add(r.budget())
	chunk := int64(50_000)
	for c := 0; c < 3 || time.Now().Before(deadline); c++ {
		res, err := in.sys.ServeTraffic(in.sch, trafficConfig(in.sh, 1, chunk, subSeed(in.seed, 200+c)))
		if err != nil {
			return err
		}
		a := accounting{issued: chunk, served: res.Packets}
		r.gate(gateAccounting(a))
		r.count(a)
		rates = append(rates, res.PacketsPerSec())
	}
	r.set("traffic.rt_per_s_1w", "rt/s", median(rates))
	return nil
}

// capturedFrame is one flight frame as a shard boundary emitted it,
// with the view of the shard that receives it.
type capturedFrame struct {
	data []byte
	to   *core.ShardView
}

// captureFlights routes the pairs segment by segment over the shard
// views exactly as the cluster does (SegmentRunner per shard) and
// encodes a flight frame at every crossing.
func captureFlights(dep *rtroute.Deployment, place *rtroute.Placement, pairs []cluster.Pair) ([]capturedFrame, error) {
	views := make([]*core.ShardView, place.Shards)
	runners := make([]*sim.SegmentRunner, place.Shards)
	for i := range views {
		v, err := dep.ShardView(i, place.Owner)
		if err != nil {
			return nil, err
		}
		views[i] = v
		runners[i] = sim.NewSegmentRunner(dep.Graph(), dep, 0, v.Owns)
	}
	var frames []capturedFrame
	for _, p := range pairs {
		h, err := dep.NewHeader(p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		f := wire.Frame{Kind: wire.FrameFlight, SrcName: p.Src, DstName: p.Dst, Home: wire.HomeClient, Rt: 1}
		fl := sim.Flight{Last: dep.NodeOf(p.Src), MaxHeaderWords: h.Words()}
		for {
			delivered, err := runners[place.Shard(fl.Last)].Fly(h, &fl)
			if err != nil {
				return nil, err
			}
			totals := wire.LegTotals{Hops: int32(fl.Hops), Weight: fl.Weight, MaxHeaderWords: int32(fl.MaxHeaderWords)}
			if !delivered {
				if f.Return {
					f.Back = totals
				} else {
					f.Out = totals
				}
				f.At = fl.Last
				data, err := wire.AppendFlightFrame(nil, &f, h, nil)
				if err != nil {
					return nil, err
				}
				frames = append(frames, capturedFrame{data: data, to: views[place.Shard(fl.Last)]})
				continue
			}
			if f.Return {
				break
			}
			f.Out = totals
			if err := dep.BeginReturn(h); err != nil {
				return nil, err
			}
			f.Return = true
			fl = sim.Flight{Last: fl.Last, MaxHeaderWords: h.Words()}
		}
	}
	return frames, nil
}

// placementFor is the shard layout the fabric layers use: the
// workload's own when it has crossings (two or more shards), else the
// fabric-zipf layout.
func placementFor(sh shape) shape {
	if sh.shards < 2 {
		f := workloadByName("fabric-zipf").shape
		sh.shards, sh.place, sh.workers = f.shards, f.place, f.workers
	}
	return sh
}

func layerWire(r *run, in *instance) error {
	fsh := placementFor(in.sh)
	place, err := rtroute.NewPlacement(in.dep, fsh.shards, fsh.place)
	if err != nil {
		return err
	}
	pairs, err := drawPairs(in.sh, subSeed(in.seed, 4), tracePairs)
	if err != nil {
		return err
	}
	frames, err := captureFlights(in.dep, place, pairs)
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		return fmt.Errorf("wire: no shard crossings among %d pairs", len(pairs))
	}
	var bytes int
	for _, c := range frames {
		bytes += len(c.data)
	}
	r.set("wire.flight_frame_bytes", "B", float64(bytes)/float64(len(frames)))

	// Each timed pass decodes every frame; the encode and repatch passes
	// add their call, and their cost is the difference to the decode
	// pass. Repatch writes into a scratch copy so the captures stay
	// pristine.
	var hd wire.HeaderDecoder
	var f wire.Frame
	buf := make([]byte, 0, 4096)
	scratch := make([]byte, 0, 4096)
	pass := func(mode int) (time.Duration, error) {
		t0 := time.Now()
		for _, c := range frames {
			data := c.data
			if mode == 2 {
				scratch = append(scratch[:0], c.data...)
				data = scratch
			}
			if err := wire.UnmarshalFlightFrame(data, &f); err != nil {
				return 0, err
			}
			h, _, err := hd.DecodeFlight(&f, c.to)
			if err != nil {
				return 0, err
			}
			switch mode {
			case 1:
				if buf, err = wire.AppendFlightFrame(buf[:0], &f, h, data); err != nil {
					return 0, err
				}
			case 2:
				if err := wire.RepatchFlight(data, &f, h); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	}
	var dec, enc, rep []float64
	deadline := time.Now().Add(r.budget())
	for len(dec) < 5 || time.Now().Before(deadline) {
		var t [3]time.Duration
		for mode := range t {
			if t[mode], err = pass(mode); err != nil {
				return err
			}
		}
		per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(frames)) }
		dec = append(dec, per(t[0]))
		enc = append(enc, per(t[1]-t[0]))
		rep = append(rep, per(t[2]-t[0]))
	}
	r.set("wire.flight_decode_ns", "ns", median(dec))
	r.set("wire.flight_encode_ns", "ns", median(enc))
	r.set("wire.flight_repatch_ns", "ns", median(rep))

	t0 := time.Now()
	snap, err := rtroute.MarshalScheme(in.sch)
	if err != nil {
		return err
	}
	r.set("wire.scheme_marshal_s", "s", time.Since(t0).Seconds())
	r.set("wire.scheme_bytes", "B", float64(len(snap)))
	return nil
}

// stageNames are the fabric's stage-table rows (cluster.stage.*).
var stageNames = []string{"decode", "route", "encode", "complete", "send", "inject", "credit-wait", "recv-wait"}

// layerCluster serves the workload's pairs through the in-process
// fabric, alternating untraced passes (rates, allocations) with passes
// that attach the telemetry sink (stage table), so the difference
// between the two is the tracing overhead.
func layerCluster(r *run, in *instance) error {
	fsh := placementFor(in.sh)
	const chunk = int64(100_000)
	var ratio, allocs, tracked, xframes, occ, coverage []float64
	stage := map[string][]float64{}
	deadline := time.Now().Add(3 * r.budget())
	for c := 0; c < 3 || time.Now().Before(deadline); c++ {
		// Each round pairs an untraced and a traced pass, alternating
		// which goes first, so the overhead is a ratio of neighbours and
		// drift in the host's speed cancels.
		var plain, traced float64
		for k := 0; k < 2; k++ {
			withSink := (k+c)%2 == 1
			cfg := clusterConfig(fsh, chunk, subSeed(in.seed, 300+c))
			var sink *telemetry.Sink
			if withSink {
				sink = rtroute.NewTelemetrySink(cfg.SinkShape())
				cfg.Sink = sink
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := in.sys.ServeCluster(in.dep, cfg)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&m1)
			a := accounting{issued: chunk, served: res.Packets}
			r.gate(gateAccounting(a))
			r.count(a)
			if !withSink {
				plain = res.PacketsPerSec()
				allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(res.Packets))
				tracked = append(tracked, res.AllocsPerRT())
				xframes = append(xframes, res.CrossingsPerRT())
				occ = append(occ, res.WindowOccupancy)
				continue
			}
			traced = res.PacketsPerSec()
			// Stage rows sum busy time over every goroutine; per-core
			// time divides by GOMAXPROCS, so against wall time per
			// roundtrip the busy rows cover ~1 on a saturated host.
			rows := sink.Snapshot().StageTable(res.Packets)
			procs := float64(runtime.GOMAXPROCS(0))
			wall := float64(res.Elapsed.Nanoseconds()) / float64(res.Packets)
			got := map[string]float64{}
			for _, row := range rows {
				got[row.Stage] = row.NsPerRT / procs
			}
			for _, name := range stageNames {
				stage[name] = append(stage[name], got[name])
			}
			coverage = append(coverage, rtroute.TelemetryBusySum(rows)/(wall*procs))
		}
		ratio = append(ratio, traced/plain)
	}
	r.set("cluster.xframes_per_rt", "count", median(xframes))
	r.set("cluster.window_occupancy", "count", median(occ))
	r.set("cluster.allocs_per_rt", "count", median(allocs))
	r.set("cluster.tracked_allocs_per_rt", "count", median(tracked))
	for _, name := range stageNames {
		r.set("cluster.stage."+name+"_ns_per_rt", "ns", median(stage[name]))
	}
	r.set("cluster.stage_coverage", "ratio", median(coverage))
	r.set("telemetry.overhead_frac", "fraction", 1-median(ratio))
	return layerBus(r)
}

// layerBus times the channel bus alone: one 64-frame SendBatch into a
// mailbox and the Recv that drains it, per frame.
func layerBus(r *run) error {
	const batch = 64
	bus := cluster.NewChanBus(2, 4)
	defer bus.Close()
	src, dst := bus.Endpoint(0), bus.Endpoint(1)
	frames := make([]cluster.InFrame, batch)
	for i := range frames {
		frames[i].Data = make([]byte, 96)
	}
	var per []float64
	deadline := time.Now().Add(r.budget())
	for len(per) < 5 || time.Now().Before(deadline) {
		const rounds = 2000
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			if err := src.SendBatch(1, frames); err != nil {
				return err
			}
			if _, err := dst.Recv(); err != nil {
				return err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/(rounds*batch))
	}
	r.set("cluster.bus_send_ns", "ns", median(per))
	return nil
}

// layerTCP runs the tcp-rpc layout (two loopback daemons) on the
// instance's deployment: a closed-loop connection for per-call latency,
// then a second connection pipelining a window of 64.
func layerTCP(r *run, in *instance) error {
	tsh := workloadByName("tcp-rpc").shape
	tsh.n, tsh.pairs = in.sh.n, in.sh.pairs
	tc, err := startTCP(in.dep, tsh)
	if err != nil {
		return err
	}
	measure := func() error {
		cl, err := cluster.DialClient(tc.addrs[0])
		if err != nil {
			return err
		}
		defer cl.Close()
		gen, err := pairGen(tsh, subSeed(in.seed, 5))
		if err != nil {
			return err
		}
		lat, _, checks, a, err := closedLoop(cl, gen, int(tsh.chunk), time.Now().Add(r.budget()))
		r.count(a)
		if err != nil {
			return err
		}
		r.gate(gateAccounting(a))
		if err := replayChecks(r, in.dep, checks); err != nil {
			return err
		}
		p99, ok := tailPercentile(lat, 99, 10)
		if !ok {
			return fmt.Errorf("tcp: %d latency samples leave fewer than 10 beyond p99", len(lat))
		}
		r.set("cluster.tcp_latency_p50_us", "us", median(lat))
		r.set("cluster.tcp_latency_p99_us", "us", p99)
		r.set("cluster.tcp_latency_samples", "count", float64(len(lat)))

		cl2, err := cluster.DialClient(tc.addrs[0])
		if err != nil {
			return err
		}
		defer cl2.Close()
		pairs, err := drawPairs(tsh, subSeed(in.seed, 6), 10*tracePairs)
		if err != nil {
			return err
		}
		var rates []float64
		deadline := time.Now().Add(r.budget())
		for len(rates) < 3 || time.Now().Before(deadline) {
			var served int64
			t0 := time.Now()
			err := cl2.Roundtrips(pairs, 64, func(int, wire.LegTotals, wire.LegTotals) error {
				served++
				return nil
			})
			a := accounting{issued: int64(len(pairs)), served: served}
			if err != nil {
				a.errors = a.issued - served
			}
			r.count(a)
			if err != nil {
				return err
			}
			r.gate(gateAccounting(a))
			rates = append(rates, float64(served)/time.Since(t0).Seconds())
		}
		r.set("cluster.tcp_rt_per_s", "rt/s", median(rates))
		return nil
	}
	err = measure()
	if cerr := tc.close(); err == nil {
		err = cerr
	}
	return err
}

// layerChurn measures the churn-family layers on the churn-fire
// configuration: the bounded affected-set probe, standalone per-slice
// repairs on maintained replicas, and one certified RunChurnCluster
// pass.
func layerChurn(r *run, sh shape, seed int64) error {
	g, naming, err := newGraph(sh, seed)
	if err != nil {
		return err
	}
	if err := layerProbe(r, g.Clone(), seed); err != nil {
		return err
	}
	if err := layerMaintain(r, sh, g, naming, seed); err != nil {
		return err
	}
	cr, err := runChurn(r, sh, seed, churnBatches)
	if err != nil {
		return err
	}
	var certify, converge []float64
	for _, b := range cr.res.BatchRows {
		certify = append(certify, float64(b.CertifyNs)/1e6)
		converge = append(converge, float64(b.RepairNsMax)/1e6)
	}
	r.set("clusterchurn.stable_rt_per_s", "rt/s", cr.res.StableRTPerSec)
	r.set("clusterchurn.certify_ms", "ms", mean(certify))
	r.set("clusterchurn.repair_ms_mean", "ms", float64(cr.res.RepairNsMean)/1e6)
	r.set("clusterchurn.converge_ms_p50", "ms", median(converge))
	r.set("clusterchurn.converge_samples", "count", float64(len(converge)))
	return nil
}

// probeEvents is the number of seeded reweightings the probe layer
// times.
const probeEvents = 64

func layerProbe(r *run, g *rtroute.Graph, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	p := churn.NewProber()
	n := g.N()
	var per, dirty []float64
	for i := 0; i < probeEvents; i++ {
		u := graph.NodeID(rng.Intn(n))
		out := g.Out(u)
		e := out[rng.Intn(len(out))]
		w := rtroute.Dist(33 + rng.Intn(32))
		t0 := time.Now()
		ds := p.Affected(g, u, e.To, w)
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3)
		dirty = append(dirty, float64(len(ds))/float64(n))
		if err := g.SetEdgeWeight(u, e.To, e.Weight); err != nil {
			return err
		}
	}
	r.set("churn.probe_us", "us", median(per))
	r.set("churn.dirty_frac", "fraction", mean(dirty))
	return nil
}

// maintainBatches is the number of event batches the maintain layer
// repairs.
const maintainBatches = 2

// layerMaintain builds one maintained replica per shard plus a
// reference, as the cluster does, applies the same seeded event
// batches to each, and times every shard's RebuildNodesFor on its owned
// slice alone, then the reference's full repair and certification.
func layerMaintain(r *run, sh shape, g *rtroute.Graph, naming *rtroute.Naming, seed int64) error {
	type replica struct {
		m  *rtroute.Maintained
		ov *churn.Overlay
	}
	build := func() (replica, time.Duration, error) {
		sys, err := newSystem(sh, g.Clone(), naming)
		if err != nil {
			return replica{}, 0, err
		}
		t0 := time.Now()
		m, err := sys.BuildMaintained(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithK(2))
		if err != nil {
			return replica{}, 0, err
		}
		took := time.Since(t0)
		ov, err := churn.NewOverlay(sys.Graph, churn.NewDamper(churn.DamperConfig{}))
		return replica{m: m, ov: ov}, took, err
	}
	ref, took, err := build()
	if err != nil {
		return err
	}
	r.set("maintain.full_build_ms", "ms", float64(took.Nanoseconds())/1e6)
	place, err := rtroute.NewPlacement(core.NewDeployment(ref.m.Plane(), rtroute.StretchSix), sh.shards, sh.place)
	if err != nil {
		return err
	}
	reps := make([]replica, sh.shards)
	for i := range reps {
		if reps[i], _, err = build(); err != nil {
			return err
		}
	}
	model := churn.NewModel(ref.ov, subSeed(seed, 8), 1, churn.DefaultMix, 64)
	model.SetMinWeight(33)
	var rebuild, certify []float64
	for b := 0; b < maintainBatches; b++ {
		// The model draws each event against the reference overlay's
		// current state, so the reference applies them as they are
		// drawn (as RunChurnCluster's drive loop does); the replicas replay
		// the finished batch.
		var events []churn.Event
		var dirty []rtroute.NodeID
		for i := 0; i < churnEventsPerBatch; i++ {
			ev := model.Next()
			ds, err := ref.ov.Apply(ev)
			if err != nil {
				return err
			}
			events = append(events, ev)
			dirty = append(dirty, ds...)
		}
		released, err := ref.ov.Advance(events[len(events)-1].At)
		if err != nil {
			return err
		}
		if _, err := ref.m.RebuildNodes(dedup(append(dirty, released...))); err != nil {
			return err
		}
		t0 := time.Now()
		if err := ref.m.Certify(); err != nil {
			return fmt.Errorf("maintain: reference certification: %w", err)
		}
		certify = append(certify, float64(time.Since(t0).Nanoseconds())/1e6)
		for s, rep := range reps {
			var ds []rtroute.NodeID
			for _, ev := range events {
				d, err := rep.ov.Apply(ev)
				if err != nil {
					return err
				}
				ds = append(ds, d...)
			}
			released, err := rep.ov.Advance(events[len(events)-1].At)
			if err != nil {
				return err
			}
			ds = dedup(append(ds, released...))
			owns := func(v rtroute.NodeID) bool { return place.Shard(v) == s }
			t0 := time.Now()
			if _, err := rep.m.RebuildNodesFor(ds, owns); err != nil {
				return err
			}
			rebuild = append(rebuild, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	r.set("maintain.rebuild_ms", "ms", mean(rebuild))
	r.set("maintain.certify_ms", "ms", mean(certify))
	return nil
}

// dedup returns the sorted distinct nodes of ds, in place.
func dedup(ds []rtroute.NodeID) []rtroute.NodeID {
	churn.SortNodeIDs(ds)
	return slices.Compact(ds)
}
