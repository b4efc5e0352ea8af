package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// resultSet holds every value of every (workload, metric) pair found in
// a file of concatenated benchmark outputs.
type resultSet map[string]map[string][]float64

// readResults parses benchmark output: each result line is attributed to
// the workload named by the host block printed just before it.
func readResults(r io.Reader) (resultSet, error) {
	set := resultSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	workload := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec struct {
			Host    *host             `json:"host"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		switch {
		case rec.Host != nil:
			workload = rec.Host.Workload
		case rec.Metrics != nil:
			if workload == "" {
				return nil, errors.New("result line without a preceding host block")
			}
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, m := range rec.Metrics {
				set[workload][name] = append(set[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return set, sc.Err()
}

func readResultFile(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readResults(f)
}

// verdict judges head against base for one metric: a regression is a
// median worse by more than the bound; a spread wider than the bound
// leaves the pair unresolved; a difference within either side's
// quartile spread is "same".
func verdict(base, head []float64, sm specMetric) string {
	o1, o2, o3 := quartiles(base)
	n1, n2, n3 := quartiles(head)
	if o2 == 0 {
		return "n/a (zero median)"
	}
	change := (n2 - o2) / o2
	worse := change
	switch sm.Better {
	case "higher":
		worse = -change
	case "lower":
	default:
		return "-"
	}
	spread := max(o3-o1, n3-n1) / abs(o2)
	if sm.Bound != nil {
		switch {
		case worse > *sm.Bound:
			return "REGRESSED"
		case spread > *sm.Bound:
			return "unresolved (spread > bound)"
		}
	}
	switch {
	case -worse > spread:
		return "better"
	case worse > spread:
		return "worse (within bound)"
	}
	return "same"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareMain prints, per (workload, metric), each side's median and
// quartiles and the verdict under BENCHMARK.json's bounds. It returns
// an error when any end-to-end metric regressed.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [--bench BENCHMARK.json] base.txt head.txt")
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, err := readResultFile(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readResultFile(fs.Arg(1))
	if err != nil {
		return err
	}
	regressed := compare(os.Stdout, spec, base, head)
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

// compare writes the comparison table and returns the number of
// regressed end-to-end pairs.
func compare(w io.Writer, spec benchSpec, base, head resultSet) int {
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	var workloads []string
	for wl := range base {
		if head[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	regressed := 0
	fmt.Fprintf(w, "%-15s %-36s %-10s %28s %28s %8s  %s\n", "workload", "metric", "unit", "base median [q1,q3]", "head median [q1,q3]", "change", "verdict")
	for _, wl := range workloads {
		for _, sm := range metrics {
			ov, nv := base[wl][sm.Name], head[wl][sm.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o1, o2, o3 := quartiles(ov)
			n1, n2, n3 := quartiles(nv)
			change := "-"
			if o2 != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(n2-o2)/o2)
			}
			v := verdict(ov, nv, sm)
			if v == "REGRESSED" {
				regressed++
			}
			fmt.Fprintf(w, "%-15s %-36s %-10s %28s %28s %8s  %s\n", wl, sm.Name, sm.Unit,
				fmt.Sprintf("%.4g [%.4g,%.4g] n=%d", o2, o1, o3, len(ov)),
				fmt.Sprintf("%.4g [%.4g,%.4g] n=%d", n2, n1, n3, len(nv)), change, v)
		}
	}
	return regressed
}
