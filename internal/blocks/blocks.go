// Package blocks implements the distributed-dictionary block machinery of
// §2 (Lemma 1) and §3.1 (Lemma 4) of the paper: the address space
// {0..n-1} is written in base q = ceil(n^(1/k)) as words of length k over
// the alphabet Σ = {0..q-1}; a block B_α (α ∈ Σ^(k-1)) holds the
// dictionary entries of the q names whose (k-1)-digit prefix is α; and a
// randomized assignment gives every node a set S_v of O(log n) blocks such
// that every prefix class is represented inside every neighborhood
// N_i(v).
package blocks

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rtroute/internal/graph"
	"rtroute/internal/rtmetric"
)

// BlockID identifies a block B_α by the integer value of its prefix word
// α, i.e. BlockID(name) = name / q. Prefix extraction σ^i is integer
// division: σ^i(B_α) = α / q^(k-1-i).
type BlockID = int32

// Universe captures the base-q coding of the name space.
type Universe struct {
	N int // number of names (names are 0..N-1)
	K int // word length k >= 2
	Q int // radix q = ceil(N^(1/k)), adjusted so q^k >= N
}

// NewUniverse computes the radix for the given n and k. It panics if
// k < 2 or n < 1 (Lemma 1 is the k = 2 case).
func NewUniverse(n, k int) Universe {
	if k < 2 {
		panic(fmt.Sprintf("blocks: k must be >= 2, got %d", k))
	}
	if n < 1 {
		panic(fmt.Sprintf("blocks: n must be >= 1, got %d", n))
	}
	q := 1
	for pow(q, k) < n {
		q++
	}
	return Universe{N: n, K: k, Q: q}
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		if r > 1<<31 {
			return 1 << 31
		}
		r *= b
	}
	return r
}

// NumBlocks returns q^(k-1), the number of blocks covering the name space
// (some may be empty when n is not a perfect k-th power).
func (u Universe) NumBlocks() int { return pow(u.Q, u.K-1) }

// BlockOf returns the block containing the given name.
func (u Universe) BlockOf(name int32) BlockID { return BlockID(int(name) / u.Q) }

// Digits returns ⟨name⟩: the base-q representation of name, MSB first,
// zero-padded to length k.
func (u Universe) Digits(name int32) []int {
	d := make([]int, u.K)
	v := int(name)
	for i := u.K - 1; i >= 0; i-- {
		d[i] = v % u.Q
		v /= u.Q
	}
	return d
}

// Prefix returns σ^i(⟨name⟩) as an integer: the value of the first i
// base-q digits of name. Prefix(name, 0) == 0 for all names.
func (u Universe) Prefix(name int32, i int) int32 {
	return int32(int(name) / pow(u.Q, u.K-i))
}

// BlockPrefix returns σ^i(B_α): the value of the first i digits of the
// (k-1)-digit block word α.
func (u Universe) BlockPrefix(b BlockID, i int) int32 {
	return int32(int(b) / pow(u.Q, u.K-1-i))
}

// NamesInBlock returns the names {αq .. αq+q-1} ∩ [0,n) of block b.
func (u Universe) NamesInBlock(b BlockID) []int32 {
	lo, hi := int(b)*u.Q, min((int(b)+1)*u.Q, u.N)
	if lo >= hi {
		return nil
	}
	names := make([]int32, 0, hi-lo)
	for x := lo; x < hi; x++ {
		names = append(names, int32(x))
	}
	return names
}

// MatchLen returns the length of the longest common base-q prefix of
// ⟨a⟩ and ⟨b⟩ (between 0 and k).
func (u Universe) MatchLen(a, b int32) int {
	for i := u.K; i >= 0; i-- {
		if u.Prefix(a, i) == u.Prefix(b, i) {
			return i
		}
	}
	return 0
}

// Assignment is a Lemma 1 / Lemma 4 block distribution: Sets[v] lists the
// blocks stored at node v (sorted ascending, own block always included as
// required by §3.3's S'_u).
type Assignment struct {
	U    Universe
	Sets [][]BlockID
}

// Config controls the assignment construction.
type Config struct {
	// Boost multiplies the per-block inclusion probability c·ln(n)/#blocks.
	// The Lemma's union bound needs a constant >= 3; larger values trade
	// table space for fewer verification retries. Default 4.
	Boost float64
	// MaxAttempts bounds the sample-and-verify loop. Default 32.
	MaxAttempts int
	// Names maps topological node index -> TINN name. nil means identity.
	// The dictionary is keyed by names; neighborhoods are topological.
	Names []int32
	// Greedy selects the deterministic deficiency-repair assignment
	// instead of probabilistic sampling: every node starts with its own
	// block, then each uncovered prefix class of each neighborhood is
	// repaired by assigning one representative block to the least-loaded
	// member. The result passes the same Lemma 1/4 verifier as the
	// sampled distribution but with near-minimal tables — the
	// construction the encoded-space certification (E14) measures, since
	// the Lemma is existential and the space bound should be measured on
	// the leanest assignment that realizes it. Deterministic: no
	// randomness consumed.
	Greedy bool
}

func (c *Config) fill() {
	if c.Boost <= 0 {
		c.Boost = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 32
	}
}

// Assign produces a block distribution satisfying Lemma 4 over the given
// roundtrip-metric space: for every node v, level 0 <= i < k and prefix
// τ ∈ Σ^i there is a node w in N_i+... — precisely, following the paper's
// usage (storage item (2) of §2 and (3a/3b) of §3.3), the verifier
// demands a block-holder for every length-i prefix inside N_i(v) for
// 1 <= i <= k-1, where |N_i(v)| = ceil(n^(i/k)). Lemma 1 is the k = 2
// case. The procedure samples the probabilistic-method distribution and
// verifies; failure to verify within MaxAttempts returns an error.
func Assign(space *rtmetric.Space, k int, rng *rand.Rand, cfg Config) (*Assignment, error) {
	cfg.fill()
	n := space.G.N()
	u := NewUniverse(n, k)
	names := cfg.Names
	if names == nil {
		names = make([]int32, n)
		for i := range names {
			names[i] = int32(i)
		}
	}
	nb := u.NumBlocks()
	// Inclusion probability per (node, block): boost * ln(n) / nb,
	// capped at 1.
	lnN := math.Log(float64(n))
	if lnN < 1 {
		lnN = 1
	}
	p := cfg.Boost * lnN / float64(nb)
	if p > 1 {
		p = 1
	}

	sizes := rtmetric.NeighborhoodSizes(n, k)
	if cfg.Greedy {
		return assignGreedy(space, u, names, sizes)
	}
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		a := &Assignment{U: u, Sets: make([][]BlockID, n)}
		for v := 0; v < n; v++ {
			own := u.BlockOf(names[v])
			set := []BlockID{own}
			for b := 0; b < nb; b++ {
				if BlockID(b) != own && rng.Float64() < p {
					set = append(set, BlockID(b))
				}
			}
			sortBlocks(set)
			a.Sets[v] = set
		}
		if a.verify(space, sizes) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("blocks: no valid assignment after %d attempts (n=%d k=%d boost=%g)",
		cfg.MaxAttempts, n, k, cfg.Boost)
}

// assignGreedy is the deterministic deficiency-repair assignment:
// starting from own blocks, walk levels from finest (i = k-1) to
// coarsest and, for every node's neighborhood N_i(v), assign each
// missing length-i prefix class to the member currently holding the
// fewest blocks (representative block: the smallest realized block with
// that prefix). Repairs are monotone — adding blocks never uncovers a
// neighborhood processed earlier — so one pass per level suffices; the
// shared verifier still hard-checks the result.
func assignGreedy(space *rtmetric.Space, u Universe, names []int32, sizes []int) (*Assignment, error) {
	n := space.G.N()
	held := make([]map[BlockID]bool, n)
	counts := make([]int, n)
	for v := 0; v < n; v++ {
		held[v] = map[BlockID]bool{u.BlockOf(names[v]): true}
		counts[v] = 1
	}
	for i := u.K - 1; i >= 1; i-- {
		maxPrefix := u.Prefix(int32(u.N-1), i)
		repStep := pow(u.Q, u.K-1-i) // smallest block with prefix tau is tau*repStep
		covered := make(map[int32]bool)
		for v := 0; v < n; v++ {
			nbhd := space.Neighborhood(graph.NodeID(v), sizes[i])
			for key := range covered {
				delete(covered, key)
			}
			for _, w := range nbhd {
				for b := range held[w] {
					covered[u.BlockPrefix(b, i)] = true
				}
			}
			for tau := int32(0); tau <= maxPrefix; tau++ {
				if covered[tau] {
					continue
				}
				rep := BlockID(int(tau) * repStep)
				best := nbhd[0]
				for _, w := range nbhd[1:] {
					if counts[w] < counts[best] || (counts[w] == counts[best] && w < best) {
						best = w
					}
				}
				held[best][rep] = true
				counts[best]++
				covered[tau] = true
			}
		}
	}
	pruneGreedy(space, u, names, sizes, held)
	a := &Assignment{U: u, Sets: make([][]BlockID, n)}
	for v := 0; v < n; v++ {
		set := make([]BlockID, 0, len(held[v]))
		for b := range held[v] {
			set = append(set, b)
		}
		sortBlocks(set)
		a.Sets[v] = set
	}
	if !a.verify(space, sizes) {
		return nil, fmt.Errorf("blocks: greedy assignment failed verification (n=%d k=%d)", n, u.K)
	}
	return a, nil
}

// pruneGreedy is the reverse-delete pass of the deficiency-repair
// assignment: drop every block whose removal keeps all neighborhoods
// covered at every level. Coverage counts only decrease, so a block
// found unremovable stays unremovable and one deterministic pass yields
// an irredundant (locally minimal) assignment. Own blocks are kept
// unconditionally (§3.3's S'_u).
func pruneGreedy(space *rtmetric.Space, u Universe, names []int32, sizes []int, held []map[BlockID]bool) {
	n := space.G.N()
	levels := u.K - 1
	// inv[i][w] lists the nodes v with w in N_{i+1}(v); cnt[i] holds, per
	// node v and prefix class tau, the number of (member, block) pairs of
	// N_{i+1}(v) matching tau.
	inv := make([][][]graph.NodeID, levels)
	cnt := make([][][]int32, levels)
	stride := make([]int, levels)
	for li := 0; li < levels; li++ {
		i := li + 1
		stride[li] = int(u.Prefix(int32(u.N-1), i)) + 1
		inv[li] = make([][]graph.NodeID, n)
		cnt[li] = make([][]int32, n)
		for v := 0; v < n; v++ {
			cnt[li][v] = make([]int32, stride[li])
		}
		for v := 0; v < n; v++ {
			for _, w := range space.Neighborhood(graph.NodeID(v), sizes[i]) {
				inv[li][w] = append(inv[li][w], graph.NodeID(v))
				for b := range held[w] {
					cnt[li][v][u.BlockPrefix(b, i)]++
				}
			}
		}
	}
	// Deterministic order: heaviest nodes first, blocks descending, so
	// the over-assigned repair targets shed load first.
	order := make([]graph.NodeID, n)
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	sort.Slice(order, func(a, b int) bool {
		if len(held[order[a]]) != len(held[order[b]]) {
			return len(held[order[a]]) > len(held[order[b]])
		}
		return order[a] < order[b]
	})
	for _, w := range order {
		own := u.BlockOf(names[w])
		blocks := make([]BlockID, 0, len(held[w]))
		for b := range held[w] {
			if b != own {
				blocks = append(blocks, b)
			}
		}
		sortBlocks(blocks)
		for j := len(blocks) - 1; j >= 0; j-- {
			b := blocks[j]
			removable := true
			for li := 0; li < levels && removable; li++ {
				tau := u.BlockPrefix(b, li+1)
				for _, v := range inv[li][w] {
					if cnt[li][v][tau] < 2 {
						removable = false
						break
					}
				}
			}
			if !removable {
				continue
			}
			delete(held[w], b)
			for li := 0; li < levels; li++ {
				tau := u.BlockPrefix(b, li+1)
				for _, v := range inv[li][w] {
					cnt[li][v][tau]--
				}
			}
		}
	}
}

func sortBlocks(s []BlockID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Holds reports whether node w stores a block whose length-i prefix is τ.
func (a *Assignment) Holds(w graph.NodeID, i int, tau int32) bool {
	for _, b := range a.Sets[w] {
		if a.U.BlockPrefix(b, i) == tau {
			return true
		}
	}
	return false
}

// HoldsBlock reports whether node w stores block b.
func (a *Assignment) HoldsBlock(w graph.NodeID, b BlockID) bool {
	for _, x := range a.Sets[w] {
		if x == b {
			return true
		}
	}
	return false
}

// verify checks the Lemma 4 coverage property for all nodes, levels and
// prefixes realized by actual names.
func (a *Assignment) verify(space *rtmetric.Space, sizes []int) bool {
	n := space.G.N()
	u := a.U
	for v := 0; v < n; v++ {
		for i := 1; i < u.K; i++ {
			nbhd := space.Neighborhood(graph.NodeID(v), sizes[i])
			// Collect covered prefixes of length i within N_i(v).
			covered := make(map[int32]bool)
			for _, w := range nbhd {
				for _, b := range a.Sets[w] {
					covered[u.BlockPrefix(b, i)] = true
				}
			}
			// Every realizable prefix must appear. Realizable prefixes of
			// length i are σ^i(name) for names 0..n-1, i.e. 0..ceil stuff;
			// enumerate via blocks of real names.
			maxPrefix := u.Prefix(int32(u.N-1), i)
			for tau := int32(0); tau <= maxPrefix; tau++ {
				if !covered[tau] {
					return false
				}
			}
		}
	}
	return true
}

// MaxSetSize returns max_v |S_v|, the quantity Lemma 1/4 bound by O(log n).
func (a *Assignment) MaxSetSize() int {
	m := 0
	for _, s := range a.Sets {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// AvgSetSize returns the mean |S_v|.
func (a *Assignment) AvgSetSize() float64 {
	total := 0
	for _, s := range a.Sets {
		total += len(s)
	}
	return float64(total) / float64(len(a.Sets))
}
