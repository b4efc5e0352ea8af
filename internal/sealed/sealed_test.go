package sealed

import (
	"math/rand"
	"testing"
)

func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := make(map[int32]int64)
		for i := 0; i < rng.Intn(200); i++ {
			m[int32(rng.Intn(1<<20))] = rng.Int63()
		}
		tab := Compile(m)
		if tab.Len() != len(m) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(m))
		}
		if tab.Built() != (len(m) > 0) {
			t.Fatalf("Built = %v with %d entries", tab.Built(), len(m))
		}
		for k, v := range m {
			if got, ok := tab.Get(k); !ok || got != v {
				t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
			}
		}
		for i := 0; i < 100; i++ {
			k := int32(rng.Intn(1 << 21))
			want, wantOK := m[k]
			if got, ok := tab.Get(k); ok != wantOK || (ok && got != want) {
				t.Fatalf("Get(%d) = (%d, %v), map has (%d, %v)", k, got, ok, want, wantOK)
			}
		}
		seen := make(map[int32]int64)
		tab.Range(func(k int32, v int64) { seen[k] = v })
		if len(seen) != len(m) {
			t.Fatalf("Range visited %d entries, want %d", len(seen), len(m))
		}
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
		if tab.Len() != len(m) || tab.Built() != (len(m) > 0) {
			t.Fatalf("Len = %d, Built = %v; map has %d entries", tab.Len(), tab.Built(), len(m))
		}
		for k, v := range m {
			if got, ok := tab.Get(k); !ok || got != v {
				t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
			}
		}
		n := 0
		tab.Range(func(k int32, v int64) {
			if m[k] != v {
				t.Fatalf("Range yielded (%d, %d), map has %d", k, v, m[k])
			}
			n++
		})
		if n != len(m) {
			t.Fatalf("Range visited %d entries, want %d", n, len(m))
		}
	}
}
