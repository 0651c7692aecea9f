// Package bitset provides a dense, fixed-capacity bitset used by the
// reachability substrates (transitive closure rows, visited sets).
//
// The zero value of Set is an empty set of capacity zero; use New to
// allocate a set that can hold indices [0, n).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset over indices [0, n).
type Set struct {
	words []uint64
	n     int
}

// New returns a Set capable of holding indices in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Or sets s to the union of s and t. The sets must have equal capacity.
func (s *Set) Or(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, t.n))
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// And sets s to the intersection of s and t. The sets must have equal capacity.
func (s *Set) And(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, t.n))
	}
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Intersects reports whether s and t share any set bit. The sets must
// have equal capacity.
func (s *Set) Intersects(t *Set) bool {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, t.n))
	}
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	t := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(t.words, s.words)
	return t
}

// ForEach calls fn for every set bit, in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as a sorted list of indices, e.g. "{1 3 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}
