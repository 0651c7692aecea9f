package xmlio_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/run"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestDecodedRunHeapPerVertex pins what a decoded run keeps resident:
// its graph, one pointer-free CSR array, and its origin column, at most
// 24 B/vertex on a 5,159-vertex QBLAST stand-in run.
func TestDecodedRunHeapPerVertex(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap accounting")
	}
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(4)), 5000)
	var doc bytes.Buffer
	if err := xmlio.EncodeRun(&doc, r, nil, "QBLAST"); err != nil {
		t.Fatal(err)
	}
	data := doc.Bytes()
	held := make([]*run.Run, 20)
	// The decoders' pool survives one collection in its victim cache;
	// the second frees it, so the pooled scratch is in neither reading.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		var err error
		if held[i], _, err = xmlio.DecodeRunBytes(data, s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perVertex := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(held)*r.NumVertices())
	runtime.KeepAlive(held)
	runtime.KeepAlive(data)
	t.Logf("%.1f B/vertex resident over %d vertices, %d edges", perVertex, r.NumVertices(), r.NumEdges())
	if perVertex > 24 {
		t.Fatalf("a decoded run keeps %.1f B/vertex resident on a %d-vertex run, want at most 24", perVertex, r.NumVertices())
	}
}
