// Package sealed provides the small immutable open-addressed lookup
// tables the forwarding hot paths read: non-negative int32 keys
// (node ids, TINN names, port labels) hashed into a power-of-two
// segment with linear probing at load factor <= 1/2, so a lookup is one
// or two cache lines instead of a Go map traversal. Tables are compiled
// once, from a builder map or a list of entries, and never mutated —
// the same build-then-seal discipline as the graph's CSR index.
package sealed

// Hash spreads an int32 id (Knuth multiplicative hash with an xor fold
// so the low bits used by the mask are well mixed). Any bit pattern is
// valid input; Table keys are additionally required to be non-negative
// because -1 is the empty-slot sentinel.
func Hash(v int32) uint32 {
	h := uint32(v) * 2654435761
	return h ^ h>>15
}

// Table is an immutable open-addressed map. The zero value is an empty
// table: every Get misses and Built reports false.
type Table[V any] struct {
	keys []int32 // -1 marks an empty slot
	vals []V
	n    int
}

// Compile builds a table holding every entry of m. Keys must be
// non-negative (the key space of node ids, names and ports).
func Compile[V any](m map[int32]V) Table[V] {
	t := newTable[V](len(m))
	for k, v := range m {
		t.put(k, v)
	}
	return t
}

// CompileEach builds a table from the n entries entry(0), ...,
// entry(n-1), holding what Compile would from a map filled in that
// order (a repeated key keeps its last value). Callers whose entries
// sit in a slice skip the intermediate map.
func CompileEach[V any](n int, entry func(i int) (int32, V)) Table[V] {
	t := newTable[V](n)
	for i := 0; i < n; i++ {
		t.put(entry(i))
	}
	return t
}

// newTable allocates an empty table with room for n entries at load
// factor <= 1/2; n == 0 gives the zero table.
func newTable[V any](n int) Table[V] {
	if n == 0 {
		return Table[V]{}
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	t := Table[V]{keys: make([]int32, size), vals: make([]V, size)}
	for i := range t.keys {
		t.keys[i] = -1
	}
	return t
}

// put stores v under k, replacing an earlier value of k.
func (t *Table[V]) put(k int32, v V) {
	if k < 0 {
		panic("sealed: negative key")
	}
	mask := uint32(len(t.keys) - 1)
	i := Hash(k) & mask
	for t.keys[i] >= 0 && t.keys[i] != k {
		i = (i + 1) & mask
	}
	if t.keys[i] < 0 {
		t.keys[i] = k
		t.n++
	}
	t.vals[i] = v
}

// Built reports whether the table was compiled from at least one entry.
func (t *Table[V]) Built() bool { return t.keys != nil }

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored under k. Negative keys are never stored
// (Compile rejects them) and always miss — they must not be compared
// against the -1 empty-slot sentinel.
func (t *Table[V]) Get(k int32) (V, bool) {
	if t.keys == nil || k < 0 {
		var zero V
		return zero, false
	}
	mask := uint32(len(t.keys)) - 1
	for i := Hash(k) & mask; ; i = (i + 1) & mask {
		switch kk := t.keys[i]; {
		case kk == k:
			return t.vals[i], true
		case kk < 0:
			var zero V
			return zero, false
		}
	}
}

// Range calls fn for every entry, in unspecified order.
func (t *Table[V]) Range(fn func(k int32, v V)) {
	for i, k := range t.keys {
		if k >= 0 {
			fn(k, t.vals[i])
		}
	}
}
