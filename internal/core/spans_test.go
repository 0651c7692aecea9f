package core

import (
	"slices"
	"testing"
)

// TestContextSpans pins the span index: one start per maximal run of
// equal contexts plus the end marker, with room for the most spans an
// index is kept for, and no index when runs average fewer than
// minSpanLen vertices.
func TestContextSpans(t *testing.T) {
	for _, tc := range []struct {
		q1, want []uint32
	}{
		{nil, nil},
		{[]uint32{3, 3, 3, 3}, []uint32{0, 4}},
		{[]uint32{1, 1, 1, 2, 2, 2, 2, 2}, []uint32{0, 3, 8}},
		{[]uint32{1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1}, []uint32{0, 4, 8, 12}},
		{[]uint32{1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1}, nil},
		{[]uint32{1, 2, 1, 2, 1, 2, 1, 2}, nil},
		{[]uint32{5}, nil},
	} {
		got := contextSpans(tc.q1)
		if !slices.Equal(got, tc.want) || (got == nil) != (tc.want == nil) || got != nil && cap(got) != len(tc.q1)/minSpanLen+1 {
			t.Errorf("contextSpans(%v) = %v (cap %d), want %v", tc.q1, got, cap(got), tc.want)
		}
	}
}
