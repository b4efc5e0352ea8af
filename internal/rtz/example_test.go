package rtz_test

import (
	"fmt"
	"math/rand"

	"rtroute/internal/graph"
	"rtroute/internal/rtz"
)

// Example builds the name-dependent Roditty–Thorup–Zwick stretch-3
// substrate over a small digraph and checks one routed roundtrip
// against the bound: routed weight at most 3 times the optimal
// roundtrip distance.
func Example() {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomSC(32, 128, 8, rng)
	m := graph.AllPairs(g)

	sub, err := rtz.New(g, m, rng, rtz.Config{}, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	routed, err := sub.Roundtrip(2, 19)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("stretch within 3:", float64(routed) <= 3*float64(m.R(2, 19)))
	// Output:
	// stretch within 3: true
}
