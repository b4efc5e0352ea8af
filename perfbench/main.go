// Command perfbench is the repository's benchmark: it drives rtroute
// from the outside through its public entry points (System.Build,
// Deploy, ServeTraffic, ServeCluster, RunChurnCluster and the TCP shard
// daemons) on four seeded workloads and prints one JSON result line.
//
//	perfbench --workload fabric-zipf --seed 1 --seconds 10 --trace 0
//	perfbench compare [--bench BENCHMARK.json] base.txt head.txt
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that times calls into each layer's
// exported functions and prints the per-layer metrics. The line before
// the result is the host block. See README.md for the metric list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its result.
type run struct {
	workload *workload
	seed     int64
	seconds  float64
	res      result
	// gateErr is the first correctness gate that tripped.
	gateErr error
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// gate records a correctness violation; the run keeps going so the
// result line still reports what was measured, but correct is false.
func (r *run) gate(err error) {
	if err != nil && r.gateErr == nil {
		r.gateErr = err
	}
}

// count adds one accounted batch of roundtrips to attempted/failed.
func (r *run) count(a accounting) {
	r.res.Attempted += a.issued
	r.res.Failed += a.drops + a.misroutes + a.errors
}

// slice returns the time budget of one of parts equal measurement
// slices.
func (r *run) slice(parts int) time.Duration {
	return time.Duration(r.seconds / float64(parts) * float64(time.Second))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "workload seed: every graph, pair and event derives from it")
		seconds = flag.Float64("seconds", 10, "measurement time per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	r := &run{workload: w, seed: *seed, seconds: *seconds, res: result{Metrics: map[string]metric{}}}
	host := hostBlock(w.name, *seed, *trace)
	var err error
	if *trace == 0 {
		err = w.measure(r)
	} else {
		err = traceLayers(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	r.res.Correct = r.gateErr == nil
	if r.gateErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate failed: %v\n", w.name, r.gateErr)
	}
	if r.res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no roundtrips attempted\n", w.name)
		os.Exit(1)
	}
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(hb))
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
}

// host is the stamp every result carries.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostBlock(workload string, seed int64, trace int) host {
	return host{
		Workload: workload, Seed: seed, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: commit(),
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
