// Package eval is the experiment harness: it measures stretch
// distributions, table sizes and header growth for every scheme and
// regenerates the paper's Fig. 1 comparison table (experiment E1) and the
// space-accounting sweeps (E9).
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
)

// RoundtripFunc routes one roundtrip between two NAMES.
type RoundtripFunc func(srcName, dstName int32) (*sim.RoundtripTrace, error)

// StretchStats aggregates measured roundtrip stretch over a pair set.
type StretchStats struct {
	Pairs          int
	Max            float64
	Mean           float64
	P99            float64
	MaxHeaderWords int
}

// Pairs enumerates ordered node pairs: all of them when n*(n-1) <= limit,
// otherwise a uniform sample of size limit.
func Pairs(n, limit int, rng *rand.Rand) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	if n*(n-1) <= limit {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					out = append(out, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
				}
			}
		}
		return out
	}
	for len(out) < limit {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			out = append(out, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
		}
	}
	return out
}

// measureStretch drives route over the pairs and accumulates the
// statistics shared by measureRoundtrips and MeasureFlights: route
// returns one roundtrip's total weight and peak header words.
func measureStretch(m graph.DistanceOracle, pairs [][2]graph.NodeID,
	route func(u, v graph.NodeID) (graph.Dist, int, error)) (StretchStats, error) {
	var stats StretchStats
	stretches := make([]float64, 0, len(pairs))
	var sum float64
	for _, p := range pairs {
		weight, headerWords, err := route(p[0], p[1])
		if err != nil {
			return stats, fmt.Errorf("eval: pair (%d,%d): %w", p[0], p[1], err)
		}
		r := m.R(p[0], p[1])
		if r <= 0 {
			return stats, fmt.Errorf("eval: degenerate roundtrip distance for (%d,%d)", p[0], p[1])
		}
		s := float64(weight) / float64(r)
		stretches = append(stretches, s)
		sum += s
		if s > stats.Max {
			stats.Max = s
		}
		if headerWords > stats.MaxHeaderWords {
			stats.MaxHeaderWords = headerWords
		}
	}
	stats.Pairs = len(pairs)
	if len(stretches) > 0 {
		stats.Mean = sum / float64(len(stretches))
		sort.Float64s(stretches)
		stats.P99 = Percentile(stretches, 99)
	}
	return stats, nil
}

// measureRoundtrips drives the given roundtrip function over the pairs
// and reports stretch statistics against the metric.
func measureRoundtrips(m graph.DistanceOracle, perm *names.Permutation, rt RoundtripFunc, pairs [][2]graph.NodeID) (StretchStats, error) {
	return measureStretch(m, pairs, func(u, v graph.NodeID) (graph.Dist, int, error) {
		trace, err := rt(perm.Name(int32(u)), perm.Name(int32(v)))
		if err != nil {
			return 0, 0, err
		}
		return trace.Weight(), trace.MaxHeaderWords(), nil
	})
}

// MeasureFlights reports stretch statistics against the metric on the
// allocation-lean runner: it drives the pairs through the plane with one
// reused header and no per-hop path recording (the traffic engine's
// hot-path discipline), so measuring a large pair set costs O(1) headers
// instead of one trace per pair. Routes — and therefore every reported
// statistic — are identical to tracing the scheme's Roundtrip.
func MeasureFlights(m graph.DistanceOracle, perm *names.Permutation, p sim.Plane, pairs [][2]graph.NodeID) (StretchStats, error) {
	var hdr sim.Header
	return measureStretch(m, pairs, func(u, v graph.NodeID) (graph.Dist, int, error) {
		var out, back sim.Flight
		var err error
		out, back, hdr, err = sim.RoundtripFlightReusing(p, hdr, perm.Name(int32(u)), perm.Name(int32(v)), 0)
		if err != nil {
			return 0, 0, err
		}
		hw := out.MaxHeaderWords
		if back.MaxHeaderWords > hw {
			hw = back.MaxHeaderWords
		}
		return out.Weight + back.Weight, hw, nil
	})
}

// Row is one line of the Fig. 1 comparison table, augmented with
// measured values.
type Row struct {
	Scheme          string
	TableSizeForm   string
	Roundtrip       bool
	NameIndependent bool
	StretchBound    string
	Measured        StretchStats
	MaxTableWords   int
	AvgTableWords   float64
	BuildTime       time.Duration
}

// Fig1Config parameterizes the Fig. 1 regeneration.
type Fig1Config struct {
	N          int
	ExtraEdges int
	MaxWeight  graph.Dist
	Seed       int64
	PairLimit  int
	Ks         []int // tradeoff parameters for ExStretch/Poly rows
	// Lazy builds and measures every scheme through the bounded lazy
	// oracle instead of the dense matrix. Outputs are identical; peak
	// memory drops from n^2 words to LazyCacheRows·n.
	Lazy          bool
	LazyCacheRows int
}

func (c *Fig1Config) fill() {
	if c.N == 0 {
		c.N = 64
	}
	if c.ExtraEdges == 0 {
		c.ExtraEdges = 4 * c.N
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 8
	}
	if c.PairLimit == 0 {
		c.PairLimit = 4000
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{3}
	}
}

// Fig1 builds every scheme on one random strongly connected digraph and
// measures them over a shared pair set — the empirical analogue of the
// paper's comparison table.
func Fig1(cfg Fig1Config) ([]Row, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.RandomSC(cfg.N, cfg.ExtraEdges, cfg.MaxWeight, rng)
	var m graph.DistanceOracle
	if cfg.Lazy {
		m = graph.NewLazyOracle(g, cfg.LazyCacheRows)
	} else {
		m = graph.AllPairs(g)
	}
	perm := names.Random(cfg.N, rng)
	pairs := Pairs(cfg.N, cfg.PairLimit, rng)
	var rows []Row

	// Baseline: the name-dependent RTZ substrate ([35]'s role).
	start := time.Now()
	sub, err := rtz.New(g, m, rng, rtz.Config{}, 0)
	if err != nil {
		return nil, err
	}
	buildRTZ := time.Since(start)
	rtzRoundtrip := func(srcName, dstName int32) (*sim.RoundtripTrace, error) {
		src := graph.NodeID(perm.Node(srcName))
		dst := graph.NodeID(perm.Node(dstName))
		outW, outH, err := sub.Route(src, sub.LabelOf(dst))
		if err != nil {
			return nil, err
		}
		backW, backH, err := sub.Route(dst, sub.LabelOf(src))
		if err != nil {
			return nil, err
		}
		return &sim.RoundtripTrace{
			Out:  &sim.Trace{Weight: outW, Hops: outH, Path: []graph.NodeID{dst}},
			Back: &sim.Trace{Weight: backW, Hops: backH, Path: []graph.NodeID{src}},
		}, nil
	}
	st, err := measureRoundtrips(m, perm, rtzRoundtrip, pairs)
	if err != nil {
		return nil, fmt.Errorf("eval: rtz baseline: %w", err)
	}
	rows = append(rows, Row{
		Scheme: "rtz-stretch3 [35]", TableSizeForm: "O~(n^1/2)",
		Roundtrip: true, NameIndependent: false, StretchBound: "3",
		Measured: st, MaxTableWords: sub.MaxTableWords(), AvgTableWords: sub.AvgTableWords(),
		BuildTime: buildRTZ,
	})

	// This paper, stretch 6.
	start = time.Now()
	s6, err := core.NewStretchSix(g, m, perm, rng, core.Stretch6Config{})
	if err != nil {
		return nil, err
	}
	build6 := time.Since(start)
	st, err = measureRoundtrips(m, perm, s6.Roundtrip, pairs)
	if err != nil {
		return nil, fmt.Errorf("eval: stretch6: %w", err)
	}
	rows = append(rows, Row{
		Scheme: "stretch6 (this paper §2)", TableSizeForm: "O~(n^1/2)",
		Roundtrip: true, NameIndependent: true, StretchBound: "6",
		Measured: st, MaxTableWords: s6.MaxTableWords(), AvgTableWords: s6.AvgTableWords(),
		BuildTime: build6,
	})

	for _, k := range cfg.Ks {
		start = time.Now()
		ex, err := core.NewExStretch(g, m, perm, rng, core.ExStretchConfig{K: k})
		if err != nil {
			return nil, err
		}
		buildEx := time.Since(start)
		st, err = measureRoundtrips(m, perm, ex.Roundtrip, pairs)
		if err != nil {
			return nil, fmt.Errorf("eval: exstretch k=%d: %w", k, err)
		}
		rows = append(rows, Row{
			Scheme:        fmt.Sprintf("exstretch k=%d (this paper §3)", k),
			TableSizeForm: fmt.Sprintf("O~(n^1/%d)", k),
			Roundtrip:     true, NameIndependent: true,
			StretchBound: fmt.Sprintf("(2^%d-1)(4k-2+eps)", k),
			Measured:     st, MaxTableWords: ex.MaxTableWords(), AvgTableWords: ex.AvgTableWords(),
			BuildTime: buildEx,
		})

		start = time.Now()
		poly, err := core.NewPolynomialStretch(g, m, perm, core.PolyConfig{K: k})
		if err != nil {
			return nil, err
		}
		buildPoly := time.Since(start)
		st, err = measureRoundtrips(m, perm, poly.Roundtrip, pairs)
		if err != nil {
			return nil, fmt.Errorf("eval: polystretch k=%d: %w", k, err)
		}
		rows = append(rows, Row{
			Scheme:        fmt.Sprintf("polystretch k=%d (this paper §4)", k),
			TableSizeForm: fmt.Sprintf("O~(k^2 n^2/%d logD)", k),
			Roundtrip:     true, NameIndependent: true,
			StretchBound: fmt.Sprintf("%d", 8*k*k+4*k-4),
			Measured:     st, MaxTableWords: poly.MaxTableWords(), AvgTableWords: poly.AvgTableWords(),
			BuildTime: buildPoly,
		})
	}
	return rows, nil
}

// FormatRows renders rows as an aligned text table.
func FormatRows(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-20s %-3s %-4s %-22s %8s %8s %8s %10s %10s\n",
		"scheme", "table size", "rt", "tinn", "stretch bound", "maxS", "meanS", "p99S", "maxTblW", "avgTblW")
	for _, r := range rows {
		rt, ni := "n", "n"
		if r.Roundtrip {
			rt = "y"
		}
		if r.NameIndependent {
			ni = "y"
		}
		fmt.Fprintf(&b, "%-30s %-20s %-3s %-4s %-22s %8.3f %8.3f %8.3f %10d %10.1f\n",
			r.Scheme, r.TableSizeForm, rt, ni, r.StretchBound,
			r.Measured.Max, r.Measured.Mean, r.Measured.P99,
			r.MaxTableWords, r.AvgTableWords)
	}
	return b.String()
}

// SpacePoint is one (n, table-size) sample of the E9 space sweep.
type SpacePoint struct {
	N             int
	Scheme        string
	MaxTableWords int
	AvgTableWords float64
}

// SpaceSweep measures table sizes of the stretch-6 scheme across graph
// sizes, demonstrating the O~(sqrt n) scaling.
func SpaceSweep(ns []int, seed int64) ([]SpacePoint, error) {
	var pts []SpacePoint
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomSC(n, 4*n, 8, rng)
		m := graph.AllPairs(g)
		perm := names.Random(n, rng)
		s6, err := core.NewStretchSix(g, m, perm, rng, core.Stretch6Config{})
		if err != nil {
			return nil, fmt.Errorf("eval: space sweep n=%d: %w", n, err)
		}
		pts = append(pts, SpacePoint{
			N: n, Scheme: "stretch6",
			MaxTableWords: s6.MaxTableWords(), AvgTableWords: s6.AvgTableWords(),
		})
	}
	return pts, nil
}

// FormatSpacePoints renders a space sweep as text.
func FormatSpacePoints(pts []SpacePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %12s %12s %14s\n", "n", "scheme", "maxTblWords", "avgTblWords", "avg/sqrt(n)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10d %-12s %12d %12.1f %14.2f\n",
			p.N, p.Scheme, p.MaxTableWords, p.AvgTableWords,
			p.AvgTableWords/math.Sqrt(float64(p.N)))
	}
	return b.String()
}
