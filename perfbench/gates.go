package main

import (
	"fmt"

	"rtroute/internal/wire"
)

// accounting is one serving phase's roundtrip ledger.
type accounting struct {
	issued, served, drops, misroutes, errors int64
}

// gateAccounting checks the zero-hung identity issued = served + drops +
// misroutes + errors and that nothing was lost at all: no workload
// changes a route under a roundtrip in flight.
func gateAccounting(a accounting) error {
	if hung := a.issued - a.served - a.drops - a.misroutes - a.errors; hung != 0 {
		return fmt.Errorf("accounting: issued %d != served %d + drops %d + misroutes %d + errors %d (%d hung)",
			a.issued, a.served, a.drops, a.misroutes, a.errors, hung)
	}
	if a.drops+a.misroutes+a.errors != 0 {
		return fmt.Errorf("workload lost roundtrips: %d drops, %d misroutes, %d errors",
			a.drops, a.misroutes, a.errors)
	}
	return nil
}

// stretchBound is the StretchSix guarantee every sampled roundtrip must
// meet.
const stretchBound = 6

// gateStretch checks a sampled roundtrip's stretch against the bound.
func gateStretch(src, dst int32, stretch float64) error {
	if stretch > stretchBound || stretch < 1 {
		return fmt.Errorf("stretch: roundtrip %d->%d has stretch %.4f outside [1, %d]", src, dst, stretch, stretchBound)
	}
	return nil
}

// gateLegTotals checks a daemon-served roundtrip's leg totals against
// the single-process tracer's replay on the same deployment.
func gateLegTotals(src, dst int32, out, back, wantOut, wantBack wire.LegTotals) error {
	if out.Hops != wantOut.Hops || out.Weight != wantOut.Weight ||
		back.Hops != wantBack.Hops || back.Weight != wantBack.Weight {
		return fmt.Errorf("tcp: roundtrip %d->%d served (out %d/%d, back %d/%d), tracer replays (out %d/%d, back %d/%d)",
			src, dst, out.Hops, out.Weight, back.Hops, back.Weight,
			wantOut.Hops, wantOut.Weight, wantBack.Hops, wantBack.Weight)
	}
	return nil
}

// gateCertified checks that a churn run certified every batch, both
// against the reference replica and against a from-scratch build.
func gateCertified(certified, fromScratch bool) error {
	if !certified || !fromScratch {
		return fmt.Errorf("churn: certified=%v from_scratch=%v, want both true", certified, fromScratch)
	}
	return nil
}
