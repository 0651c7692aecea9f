package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/dag"
	"repro/internal/label"
)

// The paper's motivating deployment stores each vertex's reachability
// label next to the data in a database, so labels must serialize
// compactly and queries must run on deserialized labels without the run
// graph. This file provides the snapshot wire formats for label sets and
// a Snapshot that answers queries from stored labels plus the (shared,
// per-specification) skeleton labeling.
//
// # Wire formats
//
// Two versions have shipped. Writers emit only SKL2; readers detect
// either from the leading magic, so stores mixing versions keep loading
// transparently.
//
// SKL1 (legacy, row-major, read-only): uvarint magic "SKL1", then
// uvarint count, numPositioned, numSpec, then per label the four
// components (Q1, Q2, Q3, Orig) as plain uvarints.
//
// SKL2 (columnar): uvarint magic "SKL2", then uvarint count,
// numPositioned, numSpec, then ceil(count/4096) blocks of up to 4096
// labels. Each block stores its four columns (Q1, Q2, Q3, Orig) in
// order, each column as
//
//	uvarint payloadLen | tag byte | payload (payloadLen bytes)
//
// with the writer picking the cheapest of three encodings per column
// per block: const (every value equal; payload is one uvarint), delta
// (first value as uvarint, then zigzag-uvarint deltas — consecutive
// labels share or neighbor the same context, so deltas are tiny), or
// fixed-width (1/2/4-byte little-endian values). Columns compress
// independently, so a run whose Orig column is constant while its order
// positions climb pays one byte where SKL1 paid thousands, and the
// decoder bulk-reads each column in a single pass over a flat buffer
// instead of one streaming varint read per component.
//
// # Labels no labeler writes
//
// Both formats store four components per label, but a Snapshot keeps
// them factored (Q1 and origin per vertex, one (Q2, Q3) row per
// context), so both readers reject the two label sets that cannot be
// factored that way: a header whose n⁺_T exceeds the label count, and
// two labels with one Q1 but different (Q2, Q3). Every positioned plan
// node is the context of at least one vertex, and a context has one
// position in each order, so no labeler writes either. These two
// rejections are the one way the readers diverge from the formats as
// written; every label set a labeler wrote decodes as before.

// SnapshotVersion identifies a snapshot wire format.
type SnapshotVersion int

const (
	// SnapshotV1 is the legacy row-major varint format ("SKL1"), still
	// read but no longer written.
	SnapshotV1 SnapshotVersion = 1
	// SnapshotV2 is the columnar block format ("SKL2"), the only format
	// written.
	SnapshotV2 SnapshotVersion = 2
)

// String returns the on-wire name of the version ("SKL1", "SKL2").
func (v SnapshotVersion) String() string {
	switch v {
	case SnapshotV1:
		return "SKL1"
	case SnapshotV2:
		return "SKL2"
	default:
		return fmt.Sprintf("SKL?%d", int(v))
	}
}

const (
	snapshotMagicV1 = 0x534b4c31 // "SKL1"
	snapshotMagicV2 = 0x534b4c32 // "SKL2"

	// snapshotBlock is the number of labels per SKL2 block: large enough
	// to amortize the 4 column headers, small enough that the decoder's
	// per-block scratch stays cache-resident.
	snapshotBlock = 4096

	// maxSnapshotLabels caps the label count a snapshot header may
	// declare: vertex IDs are int32 (dag.VertexID). Headers are
	// attacker-controlled bytes, so the decoders also never allocate
	// beyond what the input can hold (see decodeSnapshotV1 and
	// decodeSnapshotV2): a hostile count fails before the columns are
	// sized, not with a multi-GiB make.
	maxSnapshotLabels = 1 << 31

	// maxSnapshotSpec bounds numSpec so origins fit dag.VertexID (int32).
	maxSnapshotSpec = 1 << 31
)

// SKL2 per-block column encodings.
const (
	colConst   = 0x00 // payload: uvarint value, repeated for the block
	colDelta   = 0x01 // payload: uvarint first, then zigzag-uvarint deltas
	colFixed8  = 0x02 // payload: one byte per value
	colFixed16 = 0x03 // payload: two little-endian bytes per value
	colFixed32 = 0x04 // payload: four little-endian bytes per value
)

// WriteTo serializes the labeling's labels (not the skeleton labeling,
// which is shared across runs and persisted once per specification) in
// SKL2, the only format written.
func (l *Labeling) WriteTo(w io.Writer) (int64, error) { return l.snap.WriteTo(w) }

// Snapshot is a deserialized label set: it answers reachability queries
// from stored labels and a skeleton labeling, with no run graph needed.
//
// It holds the labels factored as the paper does (Lemma 4.7): a context
// column (each vertex's Q1), an origin column, and one (Q2, Q3) row per
// context, indexed by Q1 — n⁺_T+1 rows. Both wire-format readers and
// NewSnapshot store labels through one check, put, so the factoring
// holds for stored labels too.
type Snapshot struct {
	NumPositioned int
	NumSpec       int
	// Version is the wire format the snapshot was decoded from; WriteTo
	// ignores it.
	Version SnapshotVersion

	q1   []uint32       // each vertex's context: its position in the first order
	ord  []uint32       // context q's (Q2, Q3) at ord[2q] and ord[2q+1]
	orig []dag.VertexID // each vertex's origin
}

// unsetRow marks a context row no label has filled yet. No position
// reaches it: positions are at most n⁺_T, and n⁺_T at most the label
// count, which maxSnapshotLabels keeps below it.
const unsetRow = math.MaxUint32

// newSnapshot validates a header (count labels, n⁺_T = np, n_G = ns)
// and allocates the snapshot's columns, for put to fill. A header with
// more contexts than labels is rejected: every positioned plan node is
// the context of at least one vertex, so no labeler writes one, and the
// row table stays no larger than the label columns.
func newSnapshot(count, np, ns uint64, v SnapshotVersion) (Snapshot, error) {
	if count > maxSnapshotLabels {
		return Snapshot{}, fmt.Errorf("core: implausible label count %d", count)
	}
	if np > count {
		return Snapshot{}, fmt.Errorf("core: n+T=%d exceeds the %d labels", np, count)
	}
	if ns > maxSnapshotSpec {
		return Snapshot{}, fmt.Errorf("core: implausible spec size %d", ns)
	}
	// The context column and the row table share one allocation: every
	// session-cache miss decodes a snapshot.
	cols := make([]uint32, count+2*(np+1))
	s := Snapshot{
		NumPositioned: int(np),
		NumSpec:       int(ns),
		Version:       v,
		q1:            cols[:count:count],
		ord:           cols[count:],
		orig:          make([]dag.VertexID, count),
	}
	for q := 0; q < len(s.ord); q += 2 {
		s.ord[q] = unsetRow
	}
	return s, nil
}

// put stores label i after the checks every label passes, whatever its
// source: positions at most n⁺_T, an origin in the specification, and
// the same (Q2, Q3) as every earlier label with its Q1. A label set
// that gives one context two rows is rejected; no labeler writes one.
func (s *Snapshot) put(i int, q1, q2, q3, orig uint64) error {
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

// NewSnapshot builds a snapshot from label rows, with the checks
// DecodeSnapshot applies to stored labels: it fails exactly when
// decoding the same labels would.
func NewSnapshot(numPositioned, numSpec int, labels []Label) (*Snapshot, error) {
	s, err := newSnapshot(uint64(len(labels)), uint64(numPositioned), uint64(numSpec), 0)
	if err != nil {
		return nil, err
	}
	for i, lab := range labels {
		if err := s.put(i, uint64(lab.Q1), uint64(lab.Q2), uint64(lab.Q3), uint64(lab.Orig)); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

// NumVertices returns the number of labels.
func (s *Snapshot) NumVertices() int { return len(s.q1) }

// Label returns the label of vertex v: its context's row and its origin.
func (s *Snapshot) Label(v dag.VertexID) Label {
	q := s.q1[v]
	return Label{Q1: q, Q2: s.ord[2*q], Q3: s.ord[2*q+1], Orig: s.orig[v]}
}

// WriteTo serializes the snapshot in SKL2, whatever format it was
// decoded from.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(appendSnapshotV2(nil, s))
	return int64(n), err
}

func appendSnapshotV2(dst []byte, s *Snapshot) []byte {
	dst = binary.AppendUvarint(dst, uint64(snapshotMagicV2))
	dst = binary.AppendUvarint(dst, uint64(s.NumVertices()))
	dst = binary.AppendUvarint(dst, uint64(s.NumPositioned))
	dst = binary.AppendUvarint(dst, uint64(s.NumSpec))
	var col [snapshotBlock]uint32
	for base := 0; base < s.NumVertices(); base += snapshotBlock {
		q1 := s.q1[base:min(base+snapshotBlock, s.NumVertices())]
		vals := col[:len(q1)]
		dst = appendColumn(dst, q1)
		for c := range 2 {
			for i, q := range q1 {
				vals[i] = s.ord[2*q+uint32(c)]
			}
			dst = appendColumn(dst, vals)
		}
		for i, o := range s.orig[base : base+len(q1)] {
			vals[i] = uint32(o)
		}
		dst = appendColumn(dst, vals)
	}
	return dst
}

// appendColumn encodes one non-empty column block, choosing the
// cheapest of the const, delta and fixed-width encodings.
func appendColumn(dst []byte, vals []uint32) []byte {
	first := vals[0]
	maxv, allEq := first, true
	deltaSize := uvarintSize(uint64(first))
	prev := first
	for _, v := range vals[1:] {
		if v > maxv {
			maxv = v
		}
		if v != first {
			allEq = false
		}
		deltaSize += uvarintSize(zigzag(int64(v) - int64(prev)))
		prev = v
	}
	if allEq {
		n := uvarintSize(uint64(first))
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = append(dst, colConst)
		return binary.AppendUvarint(dst, uint64(first))
	}
	width, tag := 4, byte(colFixed32)
	switch {
	case maxv < 1<<8:
		width, tag = 1, colFixed8
	case maxv < 1<<16:
		width, tag = 2, colFixed16
	}
	if fixedSize := width * len(vals); fixedSize <= deltaSize {
		dst = binary.AppendUvarint(dst, uint64(fixedSize))
		dst = append(dst, tag)
		switch tag {
		case colFixed8:
			for _, v := range vals {
				dst = append(dst, byte(v))
			}
		case colFixed16:
			for _, v := range vals {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
			}
		default:
			for _, v := range vals {
				dst = binary.LittleEndian.AppendUint32(dst, v)
			}
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(deltaSize))
	dst = append(dst, colDelta)
	dst = binary.AppendUvarint(dst, uint64(first))
	prev = first
	for _, v := range vals[1:] {
		dst = binary.AppendUvarint(dst, zigzag(int64(v)-int64(prev)))
		prev = v
	}
	return dst
}

func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ReadSnapshot deserializes a label set written by WriteTo or by an
// earlier SKL1 writer; it is DecodeSnapshot over the reader's bytes.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// DecodeSnapshot deserializes a label set in either wire format,
// detected from the magic. Input is untrusted: headers are validated
// and allocation stays proportional to the input, so a corrupt or
// hostile snapshot errors out instead of exhausting memory.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	magic, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("core: read snapshot header: truncated magic")
	}
	switch magic {
	case snapshotMagicV1:
		return decodeSnapshotV1(data[k:])
	case snapshotMagicV2:
		return decodeSnapshotV2(data[k:])
	default:
		return nil, fmt.Errorf("core: bad snapshot magic %#x", magic)
	}
}

// decodeSnapshotV1 decodes the legacy row-major format from the bytes
// following the magic.
func decodeSnapshotV1(data []byte) (*Snapshot, error) {
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
	// Each label takes at least four bytes, so a count the input cannot
	// hold is rejected before anything is allocated for it.
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
		if err := s.put(i, vals[0], vals[1], vals[2], vals[3]); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

// decodeSnapshotV2 bulk-decodes the columnar format from the bytes
// following the magic.
func decodeSnapshotV2(data []byte) (*Snapshot, error) {
	var hdr [3]uint64
	for i := range hdr {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, fmt.Errorf("core: read snapshot header: truncated")
		}
		hdr[i] = v
		data = data[k:]
	}
	// Walk the column frames before sizing anything for them, so a count
	// the input cannot frame fails having allocated nothing. Every
	// encoding's payload holds at least one byte.
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
			if err := s.put(base+i, uint64(q), uint64(q2[i]), uint64(q3[i]), uint64(og[i])); err != nil {
				return nil, err
			}
		}
	}
	return &s, nil
}

// decodeColumn decodes one column block into out (len(out) >= 1) and
// returns the remaining input.
func decodeColumn(data []byte, out []uint32) ([]byte, error) {
	plen64, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("truncated column header")
	}
	data = data[k:]
	if len(data) < 1 || plen64 > uint64(len(data)-1) {
		return nil, fmt.Errorf("truncated column")
	}
	tag := data[0]
	payload := data[1 : 1+int(plen64)]
	rest := data[1+int(plen64):]
	switch tag {
	case colConst:
		v, k := binary.Uvarint(payload)
		if k != len(payload) || k <= 0 || v > math.MaxUint32 {
			return nil, fmt.Errorf("bad const column")
		}
		c := uint32(v)
		for i := range out {
			out[i] = c
		}
	case colDelta:
		v0, k := binary.Uvarint(payload)
		if k <= 0 || v0 > math.MaxUint32 {
			return nil, fmt.Errorf("bad delta column start")
		}
		out[0] = uint32(v0)
		prev := int64(v0)
		p := payload[k:]
		for i := 1; i < len(out); i++ {
			var uz uint64
			// Inline the one-byte fast path: deltas are almost always
			// small, and binary.Uvarint's call overhead dominates here.
			if len(p) > 0 && p[0] < 0x80 {
				uz = uint64(p[0])
				p = p[1:]
			} else {
				var k int
				uz, k = binary.Uvarint(p)
				if k <= 0 {
					return nil, fmt.Errorf("truncated delta column")
				}
				p = p[k:]
			}
			v := prev + unzigzag(uz)
			if v < 0 || v > math.MaxUint32 {
				return nil, fmt.Errorf("delta column value out of range")
			}
			out[i] = uint32(v)
			prev = v
		}
		if len(p) != 0 {
			return nil, fmt.Errorf("trailing bytes in delta column")
		}
	case colFixed8:
		if len(payload) != len(out) {
			return nil, fmt.Errorf("fixed8 column holds %d bytes, want %d", len(payload), len(out))
		}
		for i, b := range payload {
			out[i] = uint32(b)
		}
	case colFixed16:
		if len(payload) != 2*len(out) {
			return nil, fmt.Errorf("fixed16 column holds %d bytes, want %d", len(payload), 2*len(out))
		}
		for i := range out {
			out[i] = uint32(binary.LittleEndian.Uint16(payload[2*i:]))
		}
	case colFixed32:
		if len(payload) != 4*len(out) {
			return nil, fmt.Errorf("fixed32 column holds %d bytes, want %d", len(payload), 4*len(out))
		}
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(payload[4*i:])
		}
	default:
		return nil, fmt.Errorf("unknown column tag %#x", tag)
	}
	return rest, nil
}

// Bind attaches a skeleton labeling to the snapshot, producing a fully
// query-capable Labeling that shares the snapshot's columns. The
// skeleton must label the same specification the snapshot was created
// from.
func (s *Snapshot) Bind(skeleton label.Labeling) (*Labeling, error) {
	if skeleton == nil {
		return nil, fmt.Errorf("core: nil skeleton labeling")
	}
	return &Labeling{snap: *s, skeleton: skeleton}, nil
}
