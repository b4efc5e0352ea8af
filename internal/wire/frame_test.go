package wire

import (
	"errors"
	"reflect"
	"testing"
)

// TestFrameRoundtrip locks the frame codecs: a flight frame's preamble
// decodes bit-identically and its header section decodes back to a
// header with the original word count; every control kind encodes and
// decodes bit-identically.
func TestFrameRoundtrip(t *testing.T) {
	planes, _ := testPlanes(t, 16, 31)
	for name, p := range planes {
		h, err := p.NewHeader(4, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := Frame{
			Kind: FrameFlight, SrcName: 4, DstName: 9, Return: true, At: 7,
			Out:  LegTotals{Hops: 3, Weight: 41, MaxHeaderWords: 12},
			Back: LegTotals{Hops: 1, Weight: 5, MaxHeaderWords: 12},
			Home: 2, Origin: 99, Rt: 5, Sampled: true,
		}
		blob, err := AppendFlightFrame(nil, &in, h, nil)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var out Frame
		if err := UnmarshalFlightFrame(blob, &out); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		var hdec HeaderDecoder
		h2, _, err := hdec.DecodeFlight(&out, ownsAll{})
		if err != nil {
			t.Fatalf("%s: header section: %v", name, err)
		}
		if h2.Words() != h.Words() {
			t.Fatalf("%s: header words %d, want %d", name, h2.Words(), h.Words())
		}
		out.section = nil
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: preamble mismatch:\n in: %+v\nout: %+v", name, in, out)
		}
		if err := UnmarshalFrame(blob, &out); err == nil {
			t.Fatalf("%s: UnmarshalFrame accepted a flight frame", name)
		}
	}

	// Injects travel only as batches: every entry comes back with the
	// envelope's reply route.
	entries := []InjectEntry{{Src: 1, Dst: 14, Sampled: true}, {Src: 3, Dst: 2, Rt: 1 << 41}}
	blob := AppendInjectBatch(nil, 5, 12, entries)
	var got []InjectEntry
	var fr Frame
	if err := ForEachInject(blob, &fr, func(f *Frame) error {
		if f.Kind != FrameInjectBatch || f.Home != 5 || f.Origin != 12 {
			t.Fatalf("inject entry envelope %+v, want kind %d home 5 origin 12", f, FrameInjectBatch)
		}
		got = append(got, InjectEntry{Src: f.SrcName, Dst: f.DstName, Rt: f.Rt, Sampled: f.Sampled})
		return nil
	}); err != nil {
		t.Fatalf("inject batch: %v", err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("inject batch entries %+v, want %+v", got, entries)
	}
	if err := UnmarshalFrame(blob, &fr); err == nil {
		t.Fatal("UnmarshalFrame accepted an inject batch")
	}

	for _, in := range []Frame{
		{Kind: FrameDone, SrcName: 1, DstName: 14,
			Out: LegTotals{Hops: 2, Weight: 9, MaxHeaderWords: 8}, Back: LegTotals{Hops: 4, Weight: 11, MaxHeaderWords: 8}, Origin: 12},
		{Kind: FrameInfoReq},
		{Kind: FrameInfo, SchemeKind: 2, Nodes: 1024, Shards: 8},
	} {
		blob, err := MarshalFrame(&in)
		if err != nil {
			t.Fatalf("kind %d: marshal: %v", in.Kind, err)
		}
		var out Frame
		if err := UnmarshalFrame(blob, &out); err != nil {
			t.Fatalf("kind %d: unmarshal: %v", in.Kind, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("kind %d mismatch:\n in: %+v\nout: %+v", in.Kind, in, out)
		}
		if err := UnmarshalFrame(append(blob, 0), &out); err == nil {
			t.Fatalf("kind %d: trailing garbage accepted", in.Kind)
		}
	}
}

// TestFrameDecodeRejects locks strictness: truncation and unknown
// kinds — the reserved kinds 1 (the retired varint packet frame) and 2
// (the retired single inject) included — all error, unknown kinds typed.
func TestFrameDecodeRejects(t *testing.T) {
	blob, err := MarshalFrame(&Frame{Kind: FrameDone, SrcName: 1, DstName: 2, Origin: 3})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	for cut := 1; cut < len(blob); cut++ {
		if err := UnmarshalFrame(blob[:cut], &f); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, kind := range []FrameKind{1, 2, 77} {
		bad := append([]byte(nil), blob...)
		bad[6] = byte(kind) // frame kind slot
		if err := UnmarshalFrame(bad, &f); !errors.Is(err, ErrUnknownFrameKind) {
			t.Fatalf("kind %d: decode got %v, want ErrUnknownFrameKind", kind, err)
		}
		if _, err := MarshalFrame(&Frame{Kind: kind}); !errors.Is(err, ErrUnknownFrameKind) {
			t.Fatalf("kind %d: encode got %v, want ErrUnknownFrameKind", kind, err)
		}
	}
}

// TestPeekSnapshot locks the cheap preamble reader and the ErrVersion
// sentinel for snapshots written by a different format version.
func TestPeekSnapshot(t *testing.T) {
	planes, _ := testPlanes(t, 16, 33)
	for name, p := range planes {
		blob, err := MarshalScheme(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := PeekSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: peek: %v", name, err)
		}
		if info.Version != Version || info.Nodes != 16 {
			t.Fatalf("%s: peek got %+v", name, info)
		}
		dep, err := UnmarshalScheme(blob)
		if err != nil {
			t.Fatal(err)
		}
		if dep.Kind() != info.Kind {
			t.Fatalf("%s: peek kind %v, decode kind %v", name, info.Kind, dep.Kind())
		}
		// Bump the version varint (currently one byte) and require the
		// sentinel from both the peek and the full decode.
		mut := append([]byte(nil), blob...)
		mut[4] = Version + 1
		if info, err = PeekSnapshot(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: version bump: got %v", name, err)
		} else if info.Version != Version+1 {
			t.Fatalf("%s: peek reported version %d, want %d", name, info.Version, Version+1)
		}
		if _, err := UnmarshalScheme(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: decode version bump: got %v", name, err)
		}
	}
}
