package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"rtroute"
)

// runChurnClusterExp is the dynamic-topology experiment (E17-E19):
// seeded churn events ride the shard fabric as wire frames while the
// cluster serves roundtrips; each shard repairs the affected set
// intersected with its owned nodes behind its epoch fence, every batch
// is certified bit-identical to the reference (and, with -certify, to a
// from-scratch build), and the report compares serving throughput under
// fire against the stable windows between batches. -shards 1 is the
// single-process case (E17): one replica repairs the whole dirty set.
func runChurnClusterExp(n int, seed int64) error {
	kind, err := schemeKind()
	if err != nil {
		return err
	}
	fmt.Printf("# E17/E19 — cluster churn: online repair through the shard fabric, certified under fire\n")
	fmt.Printf("# n=%d seed=%d scheme=%s shards=%d placement=%s batches=%d events=%d certify=%v\n\n",
		n, seed, trafficScheme, clusterShards, clusterPlacement, churnEpochs, churnEvents, churnCertify)

	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, min(32*n, n*(n-2)), 64, rng)
	// Remap weights into [33, 64]: with a max/min ratio under 2, no
	// single edge can dominate its head node's entry, so an event's
	// affected set reflects real path diversity instead of one funnel
	// edge that nearly every source routes through.
	for u := 0; u < n; u++ {
		for _, e := range g.Out(rtroute.NodeID(u)) {
			if err := g.SetEdgeWeight(rtroute.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
				return err
			}
		}
	}
	// Every replica builds on its own lazy (mutation-tracking) oracle,
	// so the system only carries the graph and naming: the lazy kind
	// skips the dense matrix nothing would read.
	sys, err := rtroute.NewSystemWith(g, rtroute.RandomNaming(n, rng),
		rtroute.SystemConfig{Metric: rtroute.MetricLazy})
	if err != nil {
		return err
	}
	perPhase := trafficPackets / int64(2*churnEpochs)
	if perPhase < 1 {
		perPhase = 1
	}
	cfg := rtroute.ChurnClusterConfig{
		Kind:           kind,
		Build:          rtroute.BuildConfig{Seed: seed},
		Shards:         clusterShards,
		Workers:        trafficWorkers,
		Placement:      rtroute.PlacementPolicy(clusterPlacement),
		ChurnSeed:      seed + 1,
		Batches:        churnEpochs,
		EventsPerBatch: churnEvents,
		FirePackets:    perPhase,
		StablePackets:  perPhase,
		MinWeight:      33,
		MaxWeight:      64,
		InFlight:       clusterInFlight,
		Certify:        churnCertify,
		Workload: rtroute.TrafficWorkload{
			Kind:      rtroute.WorkloadKind(trafficWorkload),
			ZipfTheta: trafficZipf,
		},
	}
	sink, stop, err := attachSink(rtroute.TelemetryConfig{Shards: []int{0}, Workers: 1})
	if err != nil {
		return err
	}
	defer stop()
	cfg.Sink = sink

	res, err := rtroute.RunChurnCluster(sys, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	fmt.Println("\nrepairs run behind per-shard epoch fences — in-flight roundtrips finish on the old epoch or fail typed, never hang")
	if churnJSON {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(churnOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", churnOut)
	}
	return nil
}

// schemeKind resolves the -scheme flag to a SchemeKind.
func schemeKind() (rtroute.SchemeKind, error) {
	switch trafficScheme {
	case "stretch6":
		return rtroute.StretchSix, nil
	case "exstretch":
		return rtroute.ExStretch, nil
	case "poly":
		return rtroute.Polynomial, nil
	case "rtz":
		return rtroute.RTZStretch3, nil
	case "hop":
		return rtroute.HopSubstrate, nil
	default:
		return 0, fmt.Errorf("unknown -scheme %q (want stretch6|exstretch|poly|rtz|hop)", trafficScheme)
	}
}
