package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
)

// testPlanes builds one instance of every scheme kind over a shared
// seeded graph.
func testPlanes(t testing.TB, n int, seed int64) (map[string]sim.Plane, *names.Permutation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 8, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)

	planes := make(map[string]sim.Plane)
	s6, err := core.NewStretchSix(g, m, perm, rand.New(rand.NewSource(seed)), core.Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	planes["stretch6"] = s6
	s6v, err := core.NewStretchSix(g, m, perm, rand.New(rand.NewSource(seed)), core.Stretch6Config{ViaSource: true})
	if err != nil {
		t.Fatal(err)
	}
	planes["stretch6-viasource"] = s6v
	ex, err := core.NewExStretch(g, m, perm, rand.New(rand.NewSource(seed)), core.ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	planes["exstretch"] = ex
	exd, err := core.NewExStretch(g, m, perm, rand.New(rand.NewSource(seed)), core.ExStretchConfig{K: 2, DirectReturn: true})
	if err != nil {
		t.Fatal(err)
	}
	planes["exstretch-directreturn"] = exd
	poly, err := core.NewPolynomialStretch(g, m, perm, core.PolyConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	planes["polystretch"] = poly
	sub, err := rtz.New(g, m, rand.New(rand.NewSource(seed)), rtz.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := core.NewRTZPlane(sub, perm)
	if err != nil {
		t.Fatal(err)
	}
	planes["rtz"] = rp
	hop, err := rtz.NewHop(g, m, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := core.NewHopPlane(hop, perm)
	if err != nil {
		t.Fatal(err)
	}
	planes["hop"] = hp
	return planes, perm
}

// sameRoutes drives every ordered pair through both planes and demands
// bit-identical traces: same per-hop path, weight, and header growth.
func sameRoutes(t *testing.T, name string, want, got sim.Plane, n int) {
	t.Helper()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			src, dst := int32(u), int32(v)
			a, err := sim.Roundtrip(want, src, dst, 0)
			if err != nil {
				t.Fatalf("%s: reference roundtrip %d->%d: %v", name, src, dst, err)
			}
			b, err := sim.Roundtrip(got, src, dst, 0)
			if err != nil {
				t.Fatalf("%s: deployment roundtrip %d->%d: %v", name, src, dst, err)
			}
			if !reflect.DeepEqual(a.Out.Path, b.Out.Path) || !reflect.DeepEqual(a.Back.Path, b.Back.Path) {
				t.Fatalf("%s: %d->%d paths diverge:\n ref out %v back %v\n got out %v back %v",
					name, src, dst, a.Out.Path, a.Back.Path, b.Out.Path, b.Back.Path)
			}
			if a.Weight() != b.Weight() || a.Hops() != b.Hops() || a.MaxHeaderWords() != b.MaxHeaderWords() {
				t.Fatalf("%s: %d->%d aggregates diverge: ref (%d,%d,%d) got (%d,%d,%d)",
					name, src, dst, a.Weight(), a.Hops(), a.MaxHeaderWords(),
					b.Weight(), b.Hops(), b.MaxHeaderWords())
			}
		}
	}
}

// TestSchemeWireRoundtrip is the acceptance check: for every scheme
// kind, Unmarshal(Marshal(scheme)) produces a Deployment whose routes
// are bit-identical to the in-memory scheme over all pairs, and
// re-encoding the deployment reproduces the exact bytes.
func TestSchemeWireRoundtrip(t *testing.T) {
	const n = 28
	planes, _ := testPlanes(t, n, 7)
	for name, p := range planes {
		t.Run(name, func(t *testing.T) {
			blob, err := MarshalScheme(p)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := UnmarshalScheme(blob)
			if err != nil {
				t.Fatal(err)
			}
			sameRoutes(t, name, p, dep, n)

			// Re-encoding the deployment is byte-identical: the format is
			// canonical, not merely round-trip stable.
			blob2, err := MarshalScheme(dep)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(blob, blob2) {
				t.Fatalf("%s: re-encoded blob differs (%d vs %d bytes)", name, len(blob), len(blob2))
			}

			// Per-node sizes recorded on the deployment match NodeSizes on
			// the original and sum below the blob size (shared envelope).
			sizes, err := NodeSizes(p)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for v := 0; v < n; v++ {
				if dep.EncodedSize(graph.NodeID(v)) != sizes[v] {
					t.Fatalf("%s: node %d encoded size %d != NodeSizes %d",
						name, v, dep.EncodedSize(graph.NodeID(v)), sizes[v])
				}
				total += sizes[v]
			}
			if total >= len(blob) {
				t.Fatalf("%s: node sections (%d bytes) not smaller than whole blob (%d)", name, total, len(blob))
			}
		})
	}
}

// TestDeployInProcess certifies the codec-free path: Decompose →
// Assemble produces route-identical deployments for every kind.
func TestDeployInProcess(t *testing.T) {
	const n = 24
	planes, _ := testPlanes(t, n, 11)
	for name, p := range planes {
		t.Run(name, func(t *testing.T) {
			dep, err := core.Deploy(p)
			if err != nil {
				t.Fatal(err)
			}
			if dep.EncodedSize(0) != -1 {
				t.Fatalf("in-process deployment reports encoded size %d, want -1", dep.EncodedSize(0))
			}
			sameRoutes(t, name, p, dep, n)
		})
	}
}

// TestHeaderWireRoundtrip marshals headers mid-flight at every hop of a
// roundtrip and checks the decoded header forwards identically — the
// "headers are real byte packets" property.
func TestHeaderWireRoundtrip(t *testing.T) {
	const n = 20
	planes, _ := testPlanes(t, n, 3)
	for name, p := range planes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 40; trial++ {
				src := int32(rng.Intn(n))
				dst := int32(rng.Intn(n))
				if src == dst {
					continue
				}
				h, err := p.NewHeader(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				g := p.Graph()
				cur := p.NodeOf(src)
				for leg := 0; leg < 2; leg++ {
					if leg == 1 {
						if err := p.BeginReturn(h); err != nil {
							t.Fatal(err)
						}
					}
					for hop := 0; hop < 4*n; hop++ {
						// Roundtrip the header through bytes before every
						// forwarding decision.
						blob, err := MarshalHeader(h)
						if err != nil {
							t.Fatalf("hop %d: %v", hop, err)
						}
						decoded, err := UnmarshalHeader(blob)
						if err != nil {
							t.Fatalf("hop %d: %v", hop, err)
						}
						if decoded.Words() != h.Words() {
							t.Fatalf("hop %d: decoded header words %d != %d", hop, decoded.Words(), h.Words())
						}
						h = decoded
						port, delivered, err := p.Forward(cur, h)
						if err != nil {
							t.Fatalf("forward at %d: %v", cur, err)
						}
						if delivered {
							break
						}
						e, ok := g.EdgeByPort(cur, port)
						if !ok {
							t.Fatalf("node %d has no port %d", cur, port)
						}
						cur = e.To
					}
				}
				if cur != p.NodeOf(src) {
					t.Fatalf("roundtrip through marshaled headers ended at %d, not source %d", cur, p.NodeOf(src))
				}
			}
		})
	}
}
