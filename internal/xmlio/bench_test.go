package xmlio_test

import (
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// qblastRun generates a QBLAST stand-in run of about n vertices, the
// shape the serving benchmarks store and load.
func qblastRun(b testing.TB, n int) (*spec.Spec, *run.Run) {
	s, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(int64(n))), n)
	return s, r
}

func BenchmarkDecodeRun(b *testing.B) {
	for _, n := range []int{1000, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			s, r := qblastRun(b, n)
			var doc bytes.Buffer
			if err := xmlio.EncodeRun(&doc, r, nil, "QBLAST"); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(doc.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := xmlio.DecodeRun(bytes.NewReader(doc.Bytes()), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeRun(b *testing.B) {
	for _, n := range []int{1000, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			_, r := qblastRun(b, n)
			b.ReportAllocs()
			for b.Loop() {
				if err := xmlio.EncodeRun(io.Discard, r, nil, "QBLAST"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
