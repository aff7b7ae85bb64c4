package graph

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Bitmap is a fixed-size bit set used for BFS frontiers and hub-frontier
// compression ("a bitmap is used for compressing the frontiers", §5). Plain
// mutators are not safe for concurrent use; the BFS engine either confines
// a bitmap to a single simulated core (mirroring the paper's contention-
// free design) or uses SetAtomic when handler workers race on discovery.
type Bitmap struct {
	bits []uint64
	n    int64
}

// NewBitmap returns an all-zero bitmap over n positions.
func NewBitmap(n int64) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of positions.
func (b *Bitmap) Len() int64 { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int64) { b.bits[i>>6] |= 1 << uint(i&63) }

// SetAtomic sets bit i with a CAS loop, safe against concurrent SetAtomic
// calls on the same word. Readers still need external synchronization (a
// barrier) before trusting the result.
func (b *Bitmap) SetAtomic(i int64) {
	w := &b.bits[i>>6]
	mask := uint64(1) << uint(i&63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int64) { b.bits[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitmap) Get(i int64) bool { return b.bits[i>>6]&(1<<uint(i&63)) != 0 }

// Reset zeroes the whole bitmap, retaining capacity.
func (b *Bitmap) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int64 {
	var c int64
	for _, w := range b.bits {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// Empty reports whether no bit is set. This backs the paper's global-
// communication reduction: when a hub frontier is empty a one-byte flag is
// gathered instead of the bitmap.
func (b *Bitmap) Empty() bool {
	for _, w := range b.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Or merges other into b (b |= other). Both bitmaps must have the same
// length.
func (b *Bitmap) Or(other *Bitmap) {
	for i, w := range other.bits {
		b.bits[i] |= w
	}
}

// Words exposes the raw words for serialization (length ceil(n/64)). The
// returned slice aliases the bitmap.
func (b *Bitmap) Words() []uint64 { return b.bits }

// LoadWords overwrites the bitmap content from serialized words. It
// refuses (leaving the bitmap unchanged) a word count other than the
// bitmap's own and any set bit at or beyond Len — NextSet and ForEach
// would otherwise hand those positions to per-vertex arrays.
func (b *Bitmap) LoadWords(words []uint64) error {
	if len(words) != len(b.bits) {
		return fmt.Errorf("graph: bitmap of %d bits needs %d words, got %d", b.n, len(b.bits), len(words))
	}
	if tail := b.n & 63; tail != 0 && words[len(words)-1]>>uint(tail) != 0 {
		return fmt.Errorf("graph: bitmap of %d bits has bits set beyond its length", b.n)
	}
	copy(b.bits, words)
	return nil
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int64)) {
	for wi, w := range b.bits {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(int64(wi)*64 + int64(bit))
			w &= w - 1
		}
	}
}

// NextSet returns the position of the first set bit at or after from, or
// -1 when no bit remains. It word-scans with TrailingZeros64, so sparse
// iteration costs one branch per 64 positions instead of one closure call
// per bit:
//
//	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) { ... }
func (b *Bitmap) NextSet(from int64) int64 {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi := int(from >> 6)
	w := b.bits[wi] >> uint(from&63)
	if w != 0 {
		return from + int64(bits.TrailingZeros64(w))
	}
	for wi++; wi < len(b.bits); wi++ {
		if b.bits[wi] != 0 {
			return int64(wi)*64 + int64(bits.TrailingZeros64(b.bits[wi]))
		}
	}
	return -1
}

// ByteSize returns the serialized size in bytes, used by the comm layer's
// traffic accounting.
func (b *Bitmap) ByteSize() int64 { return int64(len(b.bits)) * 8 }
