package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/workload"
)

// This file keeps the snapshot readers' reference: the per-label check
// every reader applied before the block-wise pass (labelCheck) replaced
// it. refDecodeSnapshot and refNewSnapshot put each label through
// refPut, then refFinish checks the blocks and builds the span index in
// a pass of its own. FuzzSnapshotDecodeOracle holds the readers to them.

// refPut stores label i after the checks every label passes: positions
// at most n⁺_T, an origin in the specification, and the same (Q2, Q3)
// as every earlier label with its Q1.
func (s *Snapshot) refPut(i int, q1, q2, q3, orig uint64) error {
	np := uint64(s.NumPositioned)
	if q1 > np || q2 > np || q3 > np {
		return fmt.Errorf("core: label %d position exceeds n+T=%d", i, np)
	}
	if orig >= uint64(s.NumSpec) {
		return fmt.Errorf("core: label %d origin %d exceeds spec size %d", i, orig, s.NumSpec)
	}
	if row := s.ord[2*q1 : 2*q1+2]; uint64(row[0]) != q2 || uint64(row[1]) != q3 {
		if row[0] != unsetRow {
			return fmt.Errorf("core: label %d gives context %d the orders (%d, %d), an earlier label (%d, %d)",
				i, q1, q2, q3, row[0], row[1])
		}
		row[0], row[1] = uint32(q2), uint32(q3)
	}
	s.q1[i], s.orig[i] = uint32(q1), dag.VertexID(orig)
	return nil
}

// refFinish refuses a block of more than one label with one Q1 and one
// origin throughout, and otherwise indexes the context spans.
func (s *Snapshot) refFinish() (*Snapshot, error) {
	for base := 0; base < len(s.q1); base += snapshotBlock {
		end := min(base+snapshotBlock, len(s.q1))
		if end-base > 1 && refAllEqual(s.q1[base:end]) && refAllEqual(s.orig[base:end]) {
			return nil, fmt.Errorf("core: labels %d to %d share one context and one origin", base, end-1)
		}
	}
	s.spans = refContextSpans(s.q1)
	return s, nil
}

// refContextSpans is contextSpans as one branch-free pass over q1.
func refContextSpans(q1 []uint32) []uint32 {
	most := len(q1) / minSpanLen
	if most == 0 {
		return nil
	}
	spans, k := make([]uint32, most+1), 1
	for i := 1; i < len(q1); i++ {
		spans[k] = uint32(i)
		if q1[i] != q1[i-1] {
			if k++; k > most {
				return nil
			}
		}
	}
	spans[k] = uint32(len(q1))
	return spans[:k+1]
}

func refAllEqual[T comparable](xs []T) bool {
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func refNewSnapshot(numPositioned, numSpec int, labels []Label) (*Snapshot, error) {
	s, err := newSnapshot(uint64(len(labels)), uint64(numPositioned), uint64(numSpec), 0)
	if err != nil {
		return nil, err
	}
	for i, lab := range labels {
		if err := s.refPut(i, uint64(lab.Q1), uint64(lab.Q2), uint64(lab.Q3), uint64(lab.Orig)); err != nil {
			return nil, err
		}
	}
	return s.refFinish()
}

func refDecodeSnapshot(data []byte) (*Snapshot, error) {
	magic, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("core: read snapshot header: truncated magic")
	}
	switch magic {
	case snapshotMagicV1:
		return refDecodeSnapshotV1(data[k:])
	case snapshotMagicV2:
		return refDecodeSnapshotV2(data[k:])
	default:
		return nil, fmt.Errorf("core: bad snapshot magic %#x", magic)
	}
}

func refDecodeSnapshotV1(data []byte) (*Snapshot, error) {
	var vals [4]uint64
	read := func(vals []uint64) bool {
		for j := range vals {
			v, k := binary.Uvarint(data)
			if k <= 0 {
				return false
			}
			vals[j], data = v, data[k:]
		}
		return true
	}
	if !read(vals[:3]) {
		return nil, fmt.Errorf("core: read snapshot header: truncated")
	}
	count := vals[0]
	if count > uint64(len(data)/4) {
		return nil, fmt.Errorf("core: %d labels declared in %d bytes", count, len(data))
	}
	s, err := newSnapshot(count, vals[1], vals[2], SnapshotV1)
	if err != nil {
		return nil, err
	}
	for i := range s.q1 {
		if !read(vals[:]) {
			return nil, fmt.Errorf("core: read label %d: truncated", i)
		}
		if err := s.refPut(i, vals[0], vals[1], vals[2], vals[3]); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after snapshot", len(data))
	}
	return s.refFinish()
}

func refDecodeSnapshotV2(data []byte) (*Snapshot, error) {
	var hdr [3]uint64
	for i := range hdr {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, fmt.Errorf("core: read snapshot header: truncated")
		}
		hdr[i] = v
		data = data[k:]
	}
	count, rest := hdr[0], data
	for c := uint64(0); c < 4*(count/snapshotBlock+min(count%snapshotBlock, 1)); c++ {
		plen, k := binary.Uvarint(rest)
		if k <= 0 || plen == 0 || plen >= uint64(len(rest)-k) {
			return nil, fmt.Errorf("core: label block at %d: truncated column", c/4*snapshotBlock)
		}
		rest = rest[k+1+int(plen):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after snapshot", len(rest))
	}
	if count > uint64(len(data)) {
		return nil, fmt.Errorf("core: %d labels declared in %d bytes", count, len(data))
	}
	s, err := newSnapshot(count, hdr[1], hdr[2], SnapshotV2)
	if err != nil {
		return nil, err
	}
	var q2, q3, og [snapshotBlock]uint32
	for base := 0; base < len(s.q1); base += snapshotBlock {
		q1 := s.q1[base:min(base+snapshotBlock, len(s.q1))]
		n := len(q1)
		for _, col := range [4][]uint32{q1, q2[:n], q3[:n], og[:n]} {
			if data, err = decodeColumn(data, col); err != nil {
				return nil, fmt.Errorf("core: label block at %d: %w", base, err)
			}
		}
		for i, q := range q1 {
			if err := s.refPut(base+i, uint64(q), uint64(q2[i]), uint64(q3[i]), uint64(og[i])); err != nil {
				return nil, err
			}
		}
	}
	return s.refFinish()
}

// sameSnapshot reports how two readers' results differ, or "" when
// they agree: the same error text, or the same header fields, columns
// and span index (its capacity included, which the heap bounds rest
// on).
func sameSnapshot(got *Snapshot, gotErr error, want *Snapshot, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("err = %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	switch {
	case got.NumPositioned != want.NumPositioned || got.NumSpec != want.NumSpec || got.Version != want.Version:
		return fmt.Sprintf("header (%d, %d, %v), reference (%d, %d, %v)",
			got.NumPositioned, got.NumSpec, got.Version, want.NumPositioned, want.NumSpec, want.Version)
	case !slices.Equal(got.q1, want.q1):
		return "context columns differ"
	case !slices.Equal(got.ord, want.ord):
		return "row tables differ"
	case !slices.Equal(got.orig, want.orig):
		return "origin columns differ"
	case !slices.Equal(got.spans, want.spans) || (got.spans == nil) != (want.spans == nil) || cap(got.spans) != cap(want.spans):
		return fmt.Sprintf("span index %v (cap %d), reference %v (cap %d)", got.spans, cap(got.spans), want.spans, cap(want.spans))
	}
	return ""
}

// appendRawSKL1 writes labels in SKL1 without any check.
func appendRawSKL1(dst []byte, np, ns int, labels []Label) []byte {
	dst = binary.AppendUvarint(dst, snapshotMagicV1)
	for _, x := range []uint64{uint64(len(labels)), uint64(np), uint64(ns)} {
		dst = binary.AppendUvarint(dst, x)
	}
	for _, lab := range labels {
		for _, x := range []uint64{uint64(lab.Q1), uint64(lab.Q2), uint64(lab.Q3), uint64(lab.Orig)} {
			dst = binary.AppendUvarint(dst, x)
		}
	}
	return dst
}

// appendRawSKL2 writes labels in SKL2 without any check, every column
// fixed-width at four bytes a value, so any label set fits the count
// bound.
func appendRawSKL2(dst []byte, np, ns int, labels []Label) []byte {
	dst = binary.AppendUvarint(dst, snapshotMagicV2)
	for _, x := range []uint64{uint64(len(labels)), uint64(np), uint64(ns)} {
		dst = binary.AppendUvarint(dst, x)
	}
	for base := 0; base < len(labels); base += snapshotBlock {
		block := labels[base:min(base+snapshotBlock, len(labels))]
		for c := range 4 {
			dst = binary.AppendUvarint(dst, uint64(4*len(block)))
			dst = append(dst, colFixed32)
			for _, lab := range block {
				dst = binary.LittleEndian.AppendUint32(dst, [4]uint32{lab.Q1, lab.Q2, lab.Q3, uint32(lab.Orig)}[c])
			}
		}
	}
	return dst
}

// labelsFromBytes reads a label list for NewSnapshot from fuzz input:
// n⁺_T and the spec size from the first two bytes, then four bytes a
// label, each component small so that contexts repeat, rows conflict
// and positions overflow.
func labelsFromBytes(data []byte) (np, ns int, labels []Label) {
	if len(data) < 2 {
		return 0, 0, nil
	}
	np, ns, data = int(data[0]%16), int(data[1]%8), data[2:]
	for ; len(data) >= 4; data = data[4:] {
		labels = append(labels, Label{Q1: uint32(data[0] % 18), Q2: uint32(data[1] % 18), Q3: uint32(data[2] % 18), Orig: dag.VertexID(data[3] % 9)})
	}
	return np, ns, labels
}

// FuzzSnapshotDecodeOracle holds DecodeSnapshot, both formats, to the
// per-label reference decoder on arbitrary bytes: both accept and
// reject the same input, with the same error text, and what they
// accept has the same columns and span index. The same bytes, read as a
// label list, hold NewSnapshot to refNewSnapshot. Seeds: the paper
// fixtures, a two-block QBLAST stand-in run in both formats, each cut
// short and with one byte flipped, and label sets the readers refuse.
func FuzzSnapshotDecodeOracle(f *testing.F) {
	var seeds [][]byte
	for _, ext := range []string{"skl1", "skl2"} {
		data, err := os.ReadFile(filepath.Join("testdata", "paper."+ext))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(5)), 5000)
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		f.Fatal(err)
	}
	l, err := LabelRun(r, skel)
	if err != nil {
		f.Fatal(err)
	}
	labels := make([]Label, l.NumVertices())
	for v := range labels {
		labels[v] = l.Label(dag.VertexID(v))
	}
	np, ns := l.NumPositioned(), l.snap.NumSpec
	seeds = append(seeds, appendSnapshotV2(nil, &l.snap), appendRawSKL1(nil, np, ns, labels))
	for _, data := range seeds[:len(seeds):len(seeds)] {
		flipped := slices.Clone(data)
		flipped[len(flipped)*2/3] ^= 0x5a
		seeds = append(seeds, data[:len(data)/2], flipped)
	}
	// Label sets the readers refuse, one reason each, and a first block
	// of one context and one origin followed by a block with a row
	// conflict, which the conflict's error must win.
	same := Label{Q1: 1, Q2: 1, Q3: 1}
	twoBlocks := append(slices.Repeat([]Label{same}, snapshotBlock), same, Label{Q1: 1, Q2: 2, Q3: 1, Orig: 1})
	for _, bad := range [][]Label{
		{same, same},
		{same, {Q1: 1, Q2: 2, Q3: 1}},
		{same, {Q1: 1, Q2: 1, Q3: 2, Orig: 1}},
		{same, {Q1: 1, Q2: 1, Q3: 1, Orig: 2}},
		{same, {Q1: 3, Q2: 1, Q3: 1}},
		twoBlocks,
		twoBlocks[:snapshotBlock+1],
	} {
		seeds = append(seeds, appendRawSKL1(nil, 1, 2, bad), appendRawSKL2(nil, 1, 2, bad))
	}
	// SKL1 rows with a component beyond 32 bits, alone and after a row
	// conflict, whose error must win.
	for _, rows := range [][]uint64{
		{1, 1, 1, 0, 1, 1, 1 << 32, 0},
		{1, 1, 1, 0, 1, 1, 1, 1 << 33},
		{1, 1, 1, 0, 1, 0, 1, 1, 1 << 40, 1, 1, 0},
	} {
		data := binary.AppendUvarint(nil, snapshotMagicV1)
		for _, x := range append([]uint64{uint64(len(rows) / 4), 1, 2}, rows...) {
			data = binary.AppendUvarint(data, x)
		}
		seeds = append(seeds, data)
	}
	for _, data := range seeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeSnapshot(data)
		want, wantErr := refDecodeSnapshot(data)
		if diff := sameSnapshot(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("DecodeSnapshot: %s", diff)
		}
		np, ns, labels := labelsFromBytes(data)
		got, gotErr = NewSnapshot(np, ns, labels)
		want, wantErr = refNewSnapshot(np, ns, labels)
		if diff := sameSnapshot(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("NewSnapshot(%d, %d, %v): %s", np, ns, labels, diff)
		}
	})
}
