package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestColumnArbitraryValues round-trips single SKL2 column blocks
// through appendColumn and decodeColumn, with values no factored
// snapshot holds (wild jumps over the whole uint32 range, the largest
// value), and checks that each pattern gets the encoding it should.
func TestColumnArbitraryValues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	block := func(f func(i int) uint32) []uint32 {
		vals := make([]uint32, snapshotBlock)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	for _, c := range []struct {
		name string
		vals []uint32
		tag  byte
	}{
		{"zero", []uint32{0}, colConst},
		{"max", []uint32{math.MaxUint32}, colConst},
		{"const", block(func(int) uint32 { return 7 }), colConst},
		{"climbing", block(func(i int) uint32 { return uint32(1000 + i/2) }), colDelta},
		{"falling to zero", block(func(i int) uint32 { return uint32(snapshotBlock - 1 - i) }), colDelta},
		{"bytes", block(func(i int) uint32 { return uint32(rng.Intn(256)) }), colFixed8},
		{"halfwords", block(func(i int) uint32 { return uint32(rng.Intn(1 << 16)) }), colFixed16},
		{"wild", block(func(int) uint32 { return rng.Uint32() }), colFixed32},
		{"wild with max", append(block(func(int) uint32 { return rng.Uint32() })[1:], math.MaxUint32), colFixed32},
	} {
		enc := appendColumn([]byte{0xAA}, c.vals)
		if enc[0] != 0xAA {
			t.Fatalf("%s: appendColumn overwrote its prefix", c.name)
		}
		got := make([]uint32, len(c.vals))
		rest, err := decodeColumn(append(enc[1:], 0xBB), got)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(rest, []byte{0xBB}) {
			t.Fatalf("%s: decodeColumn left %x, want the next byte", c.name, rest)
		}
		if !slices.Equal(got, c.vals) {
			t.Fatalf("%s: values changed in the round trip", c.name)
		}
		// The tag follows the uvarint payload length.
		k := 1
		for enc[k]&0x80 != 0 {
			k++
		}
		if tag := enc[k+1]; tag != c.tag {
			t.Fatalf("%s: encoded with tag %#x, want %#x", c.name, tag, c.tag)
		}
	}
}
