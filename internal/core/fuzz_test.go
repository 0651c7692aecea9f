package core_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot decoder:
// snapshots are read from storage backends and could be corrupt or
// hostile, so decoding must never panic and never allocate out of
// proportion to the input (the hostile-count headers below declare
// billions of labels). Anything that does decode must re-encode (as
// SKL2) and decode back to the same labels.
func FuzzReadSnapshot(f *testing.F) {
	for _, ext := range []string{"skl1", "skl2"} {
		data := readFixture(f, ext)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, magic := range []uint64{0x534b4c31, 0x534b4c32} {
		var hostile []byte
		hostile = binary.AppendUvarint(hostile, magic)
		hostile = binary.AppendUvarint(hostile, 1<<32) // count: 64+ GiB if trusted
		hostile = binary.AppendUvarint(hostile, 1000)
		hostile = binary.AppendUvarint(hostile, 1000)
		f.Add(hostile)
	}
	f.Add(trailingSKL1())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := core.DecodeSnapshot(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of decoded snapshot: %v", err)
		}
		again, err := core.DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("decode of re-encoded snapshot: %v", err)
		}
		if again.Version != core.SnapshotV2 {
			t.Fatalf("re-encoded snapshot decodes as %v, want SKL2", again.Version)
		}
		if !slices.Equal(labelsOf(again), labelsOf(snap)) {
			t.Fatal("round trip changed the labels")
		}
	})
}
