package sealed

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"
)

func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := make(map[int32]int64)
		for i := 0; i < rng.Intn(200); i++ {
			m[int32(rng.Intn(1<<20))] = rng.Int63()
		}
		absent := make([]int32, 100)
		for i := range absent {
			absent[i] = int32(rng.Intn(1 << 21))
		}
		checkAgainstMap(t, Compile(m), m, absent)
	}
}

func TestGetNegativeKeyMisses(t *testing.T) {
	tab := Compile(map[int32]int{0: 1, 7: 2})
	for _, k := range []int32{-1, -5, -1 << 30} {
		if v, ok := tab.Get(k); ok {
			t.Fatalf("Get(%d) = (%d, true), want miss: negative keys must not match the empty-slot sentinel", k, v)
		}
	}
}

func TestZeroTable(t *testing.T) {
	var tab Table[int]
	if tab.Built() || tab.Len() != 0 {
		t.Fatal("zero table should be empty and unbuilt")
	}
	if _, ok := tab.Get(7); ok {
		t.Fatal("zero table returned a value")
	}
	tab.Range(func(int32, int) { t.Fatal("zero table ranged an entry") })
}

func TestCompileRejectsNegativeKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative key accepted")
		}
	}()
	Compile(map[int32]int{-1: 1})
}

func TestCompileEachMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		keys := make([]int32, rng.Intn(200))
		vals := make([]int64, len(keys))
		m := make(map[int32]int64)
		for i := range keys {
			// Draws from a small key space repeat keys: the last value wins.
			keys[i], vals[i] = int32(rng.Intn(300)), rng.Int63()
			m[keys[i]] = vals[i]
		}
		tab := CompileEach(len(keys), func(i int) (int32, int64) { return keys[i], vals[i] })
		checkAgainstMap(t, tab, m, []int32{300, 301, 1 << 20})
	}
}

// collidingKeys returns n distinct non-negative keys whose home slot in
// a table of the given power-of-two size is home or home+1, so they
// fill one long linear-probing run (which wraps when home is near the
// end of the segment).
func collidingKeys(n, size int, home uint32) []int32 {
	mask := uint32(size - 1)
	var keys []int32
	for k := int32(0); len(keys) < n; k++ {
		if h := Hash(k) & mask; h == home || h == (home+1)&mask {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkAgainstMap compares every observable of tab with the map m that
// holds the same entries, probing the given absent keys for misses.
func checkAgainstMap(t *testing.T, tab Table[int64], m map[int32]int64, absent []int32) {
	t.Helper()
	if tab.Len() != len(m) || tab.Built() != (len(m) > 0) {
		t.Fatalf("Len = %d, Built = %v; map has %d entries", tab.Len(), tab.Built(), len(m))
	}
	for k, v := range m {
		if got, ok := tab.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
	for _, k := range absent {
		if _, in := m[k]; in {
			continue
		}
		if got, ok := tab.Get(k); ok {
			t.Fatalf("Get(%d) = (%d, true) for a never-inserted key", k, got)
		}
	}
	seen := make(map[int32]int, len(m))
	tab.Range(func(k int32, v int64) {
		seen[k]++
		if want, in := m[k]; !in || v != want {
			t.Fatalf("Range yielded (%d, %d), map has (%d, %v)", k, v, want, in)
		}
	})
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("Range visited key %d %d times", k, c)
		}
	}
	if len(seen) != len(m) {
		t.Fatalf("Range visited %d distinct keys, want %d", len(seen), len(m))
	}
}

func TestCompileEachCollidingKeysAndRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		distinct := 1 + rng.Intn(100)
		// CompileEach sizes the segment from the entry count, repeats
		// included; draw the entry count first so the keys collide in
		// the table actually built.
		total := distinct + rng.Intn(2*distinct)
		size := 2
		for size < 2*total {
			size <<= 1
		}
		home := uint32(rng.Intn(size))
		if trial%3 == 0 {
			home = uint32(size - 1) // the run wraps past the segment end
		}
		pool := collidingKeys(distinct+20, size, home)
		keys, absent := pool[:distinct], pool[distinct:]
		entries := make([]int32, total)
		vals := make([]int64, total)
		for i := range entries {
			// Every key once, then repeats of random ones.
			entries[i], vals[i] = keys[i%distinct], rng.Int63()
			if i >= distinct {
				entries[i] = keys[rng.Intn(distinct)]
			}
		}
		rng.Shuffle(total, func(i, j int) {
			entries[i], entries[j] = entries[j], entries[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		m := make(map[int32]int64)
		for i := range entries {
			m[entries[i]] = vals[i] // the last value in entry order wins
		}
		tab := CompileEach(total, func(i int) (int32, int64) { return entries[i], vals[i] })
		checkAgainstMap(t, tab, m, absent)
		checkAgainstMap(t, Compile(m), m, absent)
	}
}

func TestLenBuiltAndNeverInsertedKey(t *testing.T) {
	tab := CompileEach(3, func(i int) (int32, int64) { return 4, int64(i) })
	if !tab.Built() || tab.Len() != 1 {
		t.Fatalf("three puts of one key: Built = %v, Len = %d, want true, 1", tab.Built(), tab.Len())
	}
	if v, ok := tab.Get(4); !ok || v != 2 {
		t.Fatalf("Get(4) = (%d, %v), want the last value (2, true)", v, ok)
	}
	for k := int32(0); k < 64; k++ {
		if _, ok := tab.Get(k); ok != (k == 4) {
			t.Fatalf("Get(%d) hit = %v", k, ok)
		}
	}
	if empty := CompileEach(0, func(int) (int32, int64) { panic("no entries") }); empty.Built() || empty.Len() != 0 {
		t.Fatal("a table of no entries should be the zero table")
	}
}

// label48 has the size of a stretch-6 dictionary value (rtz.Label).
type label48 [6]int64

// TestDictionaryFootprint locks in the dense value layout: a 930-entry
// dictionary (an n=1024 stretch-6 node's, at the repository benchmark's
// shape) of 48-byte values costs 8 bytes per probe slot plus one value
// per entry, not a value per slot.
func TestDictionaryFootprint(t *testing.T) {
	const n = 930
	tab := CompileEach(n, func(i int) (int32, label48) { return int32(7 * i), label48{int64(i)} })
	if tab.Len() != n || len(tab.keys) != 2048 {
		t.Fatalf("Len = %d with %d slots, want %d with 2048", tab.Len(), len(tab.keys), n)
	}
	bytes := 4*cap(tab.keys) + 4*cap(tab.idx) + int(unsafe.Sizeof(label48{}))*cap(tab.vals)
	if budget := 2048*8 + n*48; bytes > budget {
		t.Fatalf("table holds %d bytes of arrays, budget %d", bytes, budget)
	}
}

func FuzzSealedCompile(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 20, 0, 1, 30})
	f.Add([]byte{0xff, 0xff, 1}) // key -1
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each 3-byte record is (int16 key, value byte): a small key
		// space, so repeats and collisions are common, and negative
		// keys are reachable.
		n := len(data) / 3
		key := func(i int) int32 { return int32(int16(binary.LittleEndian.Uint16(data[3*i:]))) }
		m := make(map[int32]int64)
		negative := false
		for i := 0; i < n; i++ {
			m[key(i)] = int64(data[3*i+2])
			negative = negative || key(i) < 0
		}
		var tab Table[int64]
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			tab = CompileEach(n, func(i int) (int32, int64) { return key(i), int64(data[3*i+2]) })
			return false
		}()
		if panicked != negative {
			t.Fatalf("CompileEach panicked = %v, entries include a negative key = %v", panicked, negative)
		}
		if negative {
			return
		}
		absent := make([]int32, 0, 64)
		for k := int32(-3); k < 61; k++ {
			absent = append(absent, k)
		}
		checkAgainstMap(t, tab, m, absent)
	})
}

// BenchmarkSealedGet measures a lookup in the two shapes the forwarding
// paths read: a stretch-6 dictionary (930 names to 48-byte labels, the
// n=1024 size) and an rtz direct table (int32 ports; at n=1024 the mean
// table holds 5.6 entries, the largest 47). Hits probe stored keys,
// misses probe keys never inserted, both in a shuffled order.
func BenchmarkSealedGet(b *testing.B) {
	b.Run("label/n=930", func(b *testing.B) {
		benchGet(b, 930, func(i int) label48 { return label48{int64(i)} })
	})
	b.Run("port/n=8", func(b *testing.B) {
		benchGet(b, 8, func(i int) int32 { return int32(i) })
	})
	b.Run("port/n=48", func(b *testing.B) {
		benchGet(b, 48, func(i int) int32 { return int32(i) })
	})
}

func benchGet[V any](b *testing.B, n int, val func(int) V) {
	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(4 * n)
	stored, absent := perm[:n], perm[n:2*n]
	tab := CompileEach(n, func(i int) (int32, V) { return int32(stored[i]), val(i) })
	for _, c := range []struct {
		name string
		keys []int
		hit  bool
	}{{"hit", stored, true}, {"miss", absent, false}} {
		probe := make([]int32, 1024)
		for i := range probe {
			probe[i] = int32(c.keys[rng.Intn(len(c.keys))])
		}
		b.Run(c.name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := tab.Get(probe[i&1023]); ok {
					hits++
				}
			}
			if (hits == b.N) != c.hit && b.N > 0 {
				b.Fatalf("%d of %d lookups hit", hits, b.N)
			}
		})
	}
}
