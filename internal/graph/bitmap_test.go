package graph

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	for _, i := range []int64{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Error("unset bit reads as set")
	}
	b.Clear(63)
	if b.Get(63) || b.Count() != 3 {
		t.Error("Clear failed")
	}
	b.Reset()
	if !b.Empty() {
		t.Error("Reset failed")
	}
}

func TestBitmapForEachOrder(t *testing.T) {
	b := NewBitmap(200)
	want := []int64{3, 64, 65, 127, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int64
	b.ForEach(func(i int64) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestBitmapOr(t *testing.T) {
	a := NewBitmap(100)
	b := NewBitmap(100)
	a.Set(1)
	b.Set(2)
	b.Set(1)
	a.Or(b)
	if !a.Get(1) || !a.Get(2) || a.Count() != 2 {
		t.Fatalf("Or result wrong: count=%d", a.Count())
	}
}

func TestBitmapWordsRoundTrip(t *testing.T) {
	a := NewBitmap(150)
	a.Set(5)
	a.Set(149)
	words := append([]uint64(nil), a.Words()...)
	b := NewBitmap(150)
	b.LoadWords(words)
	if !b.Get(5) || !b.Get(149) || b.Count() != 2 {
		t.Fatal("LoadWords round trip failed")
	}
	if a.ByteSize() != int64(len(words))*8 {
		t.Fatalf("ByteSize = %d, want %d", a.ByteSize(), len(words)*8)
	}
}

// TestBitmapLoadWordsRejects: a serialized bitmap with the wrong word
// count or a bit at or past Len is refused, and the bitmap is unchanged.
func TestBitmapLoadWordsRejects(t *testing.T) {
	for name, words := range map[string][]uint64{
		"short":         {0, 0},
		"long":          {0, 0, 0, 0},
		"bit at Len":    {0, 0, 1 << 22},
		"bit past Len":  {0, 0, 1 << 63},
		"nil for 150 b": nil,
	} {
		b := NewBitmap(150)
		b.Set(7)
		if err := b.LoadWords(words); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !b.Get(7) || b.Count() != 1 {
			t.Errorf("%s: rejected load changed the bitmap", name)
		}
	}
	b := NewBitmap(150)
	if err := b.LoadWords([]uint64{0, 0, 1 << 21}); err != nil || !b.Get(149) {
		t.Fatalf("last in-range bit refused: %v", err)
	}
	if err := NewBitmap(128).LoadWords([]uint64{0, 1 << 63}); err != nil {
		t.Fatalf("word-aligned bitmap refused its top bit: %v", err)
	}
}

// Property: Count equals the number of distinct positions set.
func TestBitmapCountProperty(t *testing.T) {
	f := func(positions []uint16) bool {
		b := NewBitmap(1 << 16)
		seen := make(map[uint16]bool)
		for _, p := range positions {
			b.Set(int64(p))
			seen[p] = true
		}
		return b.Count() == int64(len(seen))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach visits exactly the set bits, in ascending order.
func TestBitmapForEachProperty(t *testing.T) {
	f := func(positions []uint16) bool {
		b := NewBitmap(1 << 16)
		seen := make(map[int64]bool)
		for _, p := range positions {
			b.Set(int64(p))
			seen[int64(p)] = true
		}
		prev := int64(-1)
		ok := true
		b.ForEach(func(i int64) {
			if i <= prev || !seen[i] {
				ok = false
			}
			delete(seen, i)
			prev = i
		})
		return ok && len(seen) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapNextSet(t *testing.T) {
	b := NewBitmap(200)
	want := []int64{3, 64, 65, 127, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int64
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet order: got %v, want %v", got, want)
		}
	}
	if b.NextSet(200) != -1 || b.NextSet(-5) != 3 {
		t.Fatal("NextSet boundary handling wrong")
	}
	if NewBitmap(100).NextSet(0) != -1 {
		t.Fatal("NextSet on empty bitmap should be -1")
	}
}

// Property: the NextSet loop visits exactly what ForEach visits.
func TestBitmapNextSetMatchesForEach(t *testing.T) {
	f := func(positions []uint16) bool {
		b := NewBitmap(1 << 16)
		for _, p := range positions {
			b.Set(int64(p))
		}
		var viaForEach, viaNextSet []int64
		b.ForEach(func(i int64) { viaForEach = append(viaForEach, i) })
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			viaNextSet = append(viaNextSet, i)
		}
		if len(viaForEach) != len(viaNextSet) {
			return false
		}
		for i := range viaForEach {
			if viaForEach[i] != viaNextSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapSetAtomicConcurrent(t *testing.T) {
	const n = 1 << 12
	b := NewBitmap(n)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers overlap deliberately: every bit is set by two of them.
			for i := int64(w); i < n; i += workers / 2 {
				b.SetAtomic(i % n)
			}
		}(w)
	}
	wg.Wait()
	if b.Count() != n {
		t.Fatalf("Count = %d after concurrent SetAtomic, want %d", b.Count(), n)
	}
}

func TestCensusSmall(t *testing.T) {
	g := smallCSR(t)
	c := Census(g)
	if c.Max != 2 || c.Min != 0 || c.Isolated != 1 {
		t.Fatalf("census = %+v", c)
	}
	if c.Mean != 8.0/5.0 {
		t.Fatalf("mean = %v, want 1.6", c.Mean)
	}
}

func TestCensusEmptyGraph(t *testing.T) {
	g, err := BuildCSR(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := Census(g)
	if c.Max != 0 || c.Min != 0 || c.Isolated != 0 {
		t.Fatalf("census of empty graph = %+v", c)
	}
}
