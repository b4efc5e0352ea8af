package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/traffic"
)

// testDeployments builds a Deployment of every scheme kind over a
// shared seeded graph.
func testDeployments(t testing.TB, n int, seed int64) (map[string]*core.Deployment, *graph.Metric) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 8, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)

	deps := make(map[string]*core.Deployment)
	add := func(name string, p sim.Plane, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dep, err := core.Deploy(p)
		if err != nil {
			t.Fatalf("%s: deploy: %v", name, err)
		}
		deps[name] = dep
	}
	s6, err := core.NewStretchSix(g, m, perm, rand.New(rand.NewSource(seed)), core.Stretch6Config{})
	add("stretch6", s6, err)
	ex, err := core.NewExStretch(g, m, perm, rand.New(rand.NewSource(seed)), core.ExStretchConfig{K: 2})
	add("exstretch", ex, err)
	poly, err := core.NewPolynomialStretch(g, m, perm, core.PolyConfig{K: 2})
	add("polystretch", poly, err)
	sub, err := rtz.New(g, m, rand.New(rand.NewSource(seed)), rtz.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := core.NewRTZPlane(sub, perm)
	add("rtz", rp, err)
	hop, err := rtz.NewHop(g, m, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := core.NewHopPlane(hop, perm)
	add("hop", hp, err)
	return deps, m
}

// replay re-serves the exact pair multiset of a cluster run through the
// sequential single-process runner and returns the same aggregates.
func replay(t *testing.T, dep *core.Deployment, cfg Config) *Result {
	t.Helper()
	injectors := cfg.Injectors
	if injectors <= 0 {
		injectors = cfg.Shards
	}
	stride := int64(cfg.SampleEvery)
	if stride < 1 {
		stride = 1
	}
	wl, err := traffic.NewWorkload(cfg.Workload, dep.Graph().N(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	var samples []traffic.Sample
	for i, quota := range traffic.SplitQuota(cfg.Packets, injectors) {
		gen := wl.Generator(i)
		for j := int64(0); j < quota; j++ {
			src, dst := gen.Next()
			out, back, err := sim.RoundtripFlight(dep, src, dst, cfg.MaxHops)
			if err != nil {
				t.Fatalf("replay %d->%d: %v", src, dst, err)
			}
			weight := out.Weight + back.Weight
			hops := out.Hops + back.Hops
			res.Packets++
			res.Hops += int64(hops)
			res.Weight += int64(weight)
			res.HopHist.Add(hops)
			hw := out.MaxHeaderWords
			if back.MaxHeaderWords > hw {
				hw = back.MaxHeaderWords
			}
			res.HdrHist.Add(hw)
			if cfg.Oracle != nil && j%stride == 0 {
				samples = append(samples, traffic.Sample{Src: dep.NodeOf(src), Dst: dep.NodeOf(dst), Weight: weight})
			}
		}
	}
	if cfg.Oracle != nil {
		res.Stretch, err = traffic.StretchQuantiles(cfg.Oracle, samples)
		if err != nil {
			t.Fatal(err)
		}
		res.Sampled = len(samples)
	}
	return res
}

// TestClusterMatchesSequentialRun is the tentpole certification: an
// 8-shard channel-bus cluster — packets wire-encoded at every shard
// crossing, decoded and resumed by the owner — must produce exactly the
// hop counts, routed weights, header peaks and stretch quantiles of a
// sequential single-process sim replay over the identical pair
// multiset, for every scheme kind. Run under -race this also certifies
// the engine's concurrency discipline.
func TestClusterMatchesSequentialRun(t *testing.T) {
	deps, m := testDeployments(t, 64, 7)
	for name, dep := range deps {
		cfg := Config{
			Shards: 8, Workers: 2, Packets: 3000,
			Workload: traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9},
			Seed:     11, Oracle: m, SampleEvery: 3, InFlight: 64, Batch: 16,
		}
		got, err := Run(dep, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := replay(t, dep, cfg)
		if got.Packets != want.Packets || got.Hops != want.Hops || got.Weight != want.Weight {
			t.Fatalf("%s: totals (packets,hops,weight) = (%d,%d,%d), replay (%d,%d,%d)",
				name, got.Packets, got.Hops, got.Weight, want.Packets, want.Hops, want.Weight)
		}
		if !reflect.DeepEqual(got.HopHist, want.HopHist) {
			t.Fatalf("%s: hop histogram diverges from sequential replay", name)
		}
		if !reflect.DeepEqual(got.HdrHist, want.HdrHist) {
			t.Fatalf("%s: header histogram diverges from sequential replay", name)
		}
		if got.Sampled != want.Sampled || !reflect.DeepEqual(got.Stretch, want.Stretch) {
			t.Fatalf("%s: stretch quantiles %+v over %d samples, replay %+v over %d",
				name, got.Stretch, got.Sampled, want.Stretch, want.Sampled)
		}
		if got.CrossShard == 0 {
			t.Fatalf("%s: 8-shard run reported zero cross-shard frames", name)
		}
		var fromShards int64
		for _, st := range got.PerShard {
			fromShards += st.Packets
			if st.Errors != 0 {
				t.Fatalf("%s: shard %d reported %d errors", name, st.Shard, st.Errors)
			}
		}
		if fromShards != cfg.Packets {
			t.Fatalf("%s: per-shard packets sum to %d, want %d", name, fromShards, cfg.Packets)
		}
	}
}

// TestPlacementPolicies locks the partition invariants: every policy
// covers all nodes with non-empty shards deterministically, and the
// rtz-aligned policy never splits a stretch-3 cluster across shards.
func TestPlacementPolicies(t *testing.T) {
	deps, _ := testDeployments(t, 96, 3)
	dep := deps["stretch6"]
	for _, policy := range []Policy{Contiguous, Hash, RTZAligned} {
		p, err := NewPlacement(dep, 6, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for _, c := range p.Counts() {
			if c == 0 {
				t.Fatalf("%s: empty shard in %v", policy, p.Counts())
			}
		}
		again, err := NewPlacement(dep, 6, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Owner, again.Owner) {
			t.Fatalf("%s: placement is not deterministic", policy)
		}
		frac := p.CrossEdgeFraction(dep.Graph())
		if frac <= 0 || frac >= 1 {
			t.Fatalf("%s: cross-edge fraction %.3f out of (0,1)", policy, frac)
		}
	}
	// rtz-aligned: nodes sharing a center share a shard.
	p, err := NewPlacement(dep, 6, RTZAligned)
	if err != nil {
		t.Fatal(err)
	}
	centers, err := rtzCenters(dep)
	if err != nil {
		t.Fatal(err)
	}
	shardOfCenter := map[graph.NodeID]int32{}
	for v, c := range centers {
		if s, ok := shardOfCenter[c]; ok && s != p.Owner[v] {
			t.Fatalf("cluster of center %d split across shards %d and %d", c, s, p.Owner[v])
		}
		shardOfCenter[c] = p.Owner[v]
	}
	// Policies without rtz labels must refuse rtz alignment.
	if _, err := NewPlacement(deps["polystretch"], 6, RTZAligned); err == nil {
		t.Fatal("rtz-aligned placement accepted a scheme without rtz labels")
	}
}

// TestShardViewRefusesForeignForward locks the locality discipline: a
// shard must not forward with state it does not hold.
func TestShardViewRefusesForeignForward(t *testing.T) {
	deps, _ := testDeployments(t, 16, 5)
	dep := deps["rtz"]
	p, err := NewPlacement(dep, 2, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	view, err := dep.ShardView(0, p.Owner)
	if err != nil {
		t.Fatal(err)
	}
	var foreign graph.NodeID = -1
	for v := 0; v < 16; v++ {
		if p.Owner[v] != 0 {
			foreign = graph.NodeID(v)
			break
		}
	}
	h, err := view.NewHeader(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := view.Forward(foreign, h); err == nil {
		t.Fatalf("shard 0 forwarded at foreign node %d", foreign)
	}
	if _, err := dep.ShardView(99, p.Owner); err == nil {
		t.Fatal("empty shard view accepted")
	}
}
