package core

import (
	"math/rand"
	"strings"
	"testing"

	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/sim"
)

// Failure-injection tests: a production routing stack must fail loudly
// and diagnosably — never panic, never loop silently — when handed
// corrupted headers, foreign labels, or impossible modes.

type bogusHeader struct{}

func (bogusHeader) Words() int { return 1 }

func buildAllSchemes(t *testing.T, seed int64, n int) (*graph.Graph, *names.Permutation, []sim.Forwarder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 5, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)
	s6, err := NewStretchSix(g, m, perm, rng, Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExStretch(g, m, perm, rng, ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g, perm, []sim.Forwarder{s6, ex, poly}
}

func TestForwardRejectsWrongHeaderType(t *testing.T) {
	_, _, schemes := buildAllSchemes(t, 1, 16)
	for _, sch := range schemes {
		if _, _, err := sch.Forward(0, bogusHeader{}); err == nil {
			t.Fatalf("%T accepted a foreign header type", sch)
		}
	}
}

func TestForwardRejectsInvalidMode(t *testing.T) {
	_, _, schemes := buildAllSchemes(t, 2, 16)
	headers := []sim.Header{
		&S6Header{Mode: Mode(99), DestName: 1},
		&ExHeader{Mode: Mode(99), DestName: 1},
		&PolyHeader{Mode: Mode(99), DestName: 1},
	}
	for i, sch := range schemes {
		if _, _, err := sch.Forward(0, headers[i]); err == nil {
			t.Fatalf("%T accepted an invalid mode", sch)
		} else if !strings.Contains(err.Error(), "mode") {
			t.Fatalf("%T error does not mention the mode: %v", sch, err)
		}
	}
}

func TestStretchSixUnknownDestinationName(t *testing.T) {
	// A name outside [0,n) has no block; the source must fail with a
	// diagnosable error rather than forward garbage.
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomSC(16, 64, 4, rng)
	m := graph.AllPairs(g)
	perm := names.Random(16, rng)
	s, err := NewStretchSix(g, m, perm, rng, Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := &S6Header{Mode: ModeNewPacket, DestName: 9999, DictName: -1}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked on unknown name: %v", r)
		}
	}()
	if _, _, err := s.Forward(0, h); err == nil {
		// Some block universes cover 9999 legitimately; then routing
		// proceeds but can never deliver — the simulator's hop budget
		// must catch it.
		if _, err := sim.Run(g, s, 0, h, 64); err == nil {
			t.Fatal("unknown destination silently 'delivered'")
		}
	}
}

func TestExStretchEmptyStackReturnFails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomSC(16, 64, 4, rng)
	m := graph.AllPairs(g)
	perm := names.Random(16, rng)
	s, err := NewExStretch(g, m, perm, rng, ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A ReturnPacket at a node that is not the source with no stack is a
	// protocol violation and must error.
	h := &ExHeader{Mode: ModeReturnPacket, DestName: perm.Name(3), SrcName: perm.Name(5)}
	if _, _, err := s.Forward(3, h); err == nil {
		t.Fatal("empty-stack return accepted away from the source")
	}
}

func TestPolyLadderExhaustionIsDiagnosed(t *testing.T) {
	// Corrupt the header to the top level and force a failure return:
	// escalation past the ladder must produce an explicit error.
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomSC(16, 64, 4, rng)
	m := graph.AllPairs(g)
	perm := names.Random(16, rng)
	s, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.NodeID(2)
	h := &PolyHeader{
		Mode:     ModeOutbound,
		DestName: 9999, // unmatchable: every dictionary lookup fails
		SrcName:  s.nodes[src].selfName,
		Level:    int32(s.Levels() - 1),
		Ref:      s.nodes[src].home[s.Levels()-1],
	}
	h.NextWaypointName = h.SrcName
	e := s.nodes[src].trees[h.Ref]
	h.SourceLabel = e.ownLabel
	_, _, err = s.Forward(src, h)
	if err == nil || !strings.Contains(err.Error(), "ladder") {
		t.Fatalf("ladder exhaustion not diagnosed: %v", err)
	}
}

func TestForeignLabelIsCaught(t *testing.T) {
	// Route with a header whose leg targets a tree from a DIFFERENT
	// build: the hop table lookup must fail cleanly.
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomSC(16, 64, 4, rng)
	m := graph.AllPairs(g)
	perm := names.Random(16, rng)
	ex, err := NewExStretch(g, m, perm, rng, ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := &ExHeader{Mode: ModeOutbound, DestName: perm.Name(7), SrcName: perm.Name(0), NextWaypointName: -2, LegSet: true}
	h.Leg.Ref.Level = 99 // no such tree anywhere
	if _, _, err := ex.Forward(0, h); err == nil {
		t.Fatal("foreign tree reference accepted")
	}
}

func TestRoundtripToUnknownNamePanicsSafely(t *testing.T) {
	// The public Roundtrip maps names through the permutation; names
	// outside [0,n) are a caller bug and may panic — but must not
	// corrupt the scheme for later calls.
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomSC(16, 64, 4, rng)
	m := graph.AllPairs(g)
	perm := names.Random(16, rng)
	s, err := NewStretchSix(g, m, perm, rng, Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }() // expected: index out of range
		_, _ = s.Roundtrip(0, 12345)
	}()
	// The scheme must still work.
	if _, err := s.Roundtrip(perm.Name(1), perm.Name(9)); err != nil {
		t.Fatalf("scheme corrupted by bad call: %v", err)
	}
}

// TestAssembleRejectsOutOfRangeKeys: decoded local state is outside
// input, and a dictionary name or direct-entry destination outside
// [0,n) must fail the assembly typed. A negative one used to reach the
// probe-table compiler and panic.
func TestAssembleRejectsOutOfRangeKeys(t *testing.T) {
	_, _, schemes := buildAllSchemes(t, 9, 24)
	cases := []struct {
		name   string
		mutate func(*S6Local)
	}{
		{"negative dictionary name", func(l *S6Local) { l.Entries[0].Name = -1 }},
		{"dictionary name past n", func(l *S6Local) { l.Entries[len(l.Entries)-1].Name = 24 }},
		{"negative direct destination", func(l *S6Local) { l.Tab3.Direct[0].Dst = -3 }},
	}
	for _, c := range cases {
		st, locals, err := Decompose(schemes[0].(*StretchSix))
		if err != nil {
			t.Fatal(err)
		}
		// A node past 0, so the failure surfaces from a pool worker.
		v := len(locals) - 1
		for len(locals[v].S6.Tab3.Direct) == 0 {
			v--
		}
		c.mutate(locals[v].S6)
		if _, err := Assemble(st, locals); err == nil || !strings.Contains(err.Error(), "outside [0,24)") {
			t.Fatalf("%s: Assemble returned %v, want an out-of-range error", c.name, err)
		}
	}
}
