package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// refNominal is what one pass of the reference kernel takes on the
// nominal machine (a 2-vCPU Xeon at 2.0 GHz in a quiet phase). Reported
// times are scaled to that machine: each is multiplied by refNominal
// over the kernel's median time in passes run around it.
const refNominal = 1000 * time.Microsecond

// refEvery is how much serve time passes between two passes of the
// reference kernel in the timed phase; one pass costs about 1 ms, so
// the kernel adds about 4% to a run.
const refEvery = 25 * time.Millisecond

// refWindow is how many passes, the nearest in time, set the scale of
// one timed op. The host's speed moves within a run too, over tenths of
// a second to seconds, and one op's serve time tracks the passes around
// it much more closely than the run's median pass.
const refWindow = 6

// refKernel is a fixed piece of standard-library work, timed between
// the program's requests to gauge how fast the host runs at the moment.
// On a shared host the speed of the same code moves by up to 1.7× over
// minutes, as neighbours come and go; the kernel moves with it, and the
// program's code does not touch it, so a change to the program moves
// the scaled times and a change of host phase mostly does not. Its
// parts are the kinds of work the program's requests do: sorting,
// hashing, tokenizing XML and allocating small linked objects. Its
// inputs come from a fixed seed, never the workload's.
type refKernel struct {
	ints, scratch []int
	data          []byte
	doc           []byte
	times         []time.Duration
}

// refNode is the linked object the kernel's allocation part builds.
type refNode struct {
	next *refNode
	name string
}

// refSink keeps the kernel's results live, so no part is optimized away.
var refSink int

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{ints: make([]int, 4096), data: make([]byte, 64<<10)}
	for i := range k.ints {
		k.ints[i] = rng.Int()
	}
	k.scratch = make([]int, len(k.ints))
	rng.Read(k.data)
	var doc bytes.Buffer
	doc.WriteString("<run>")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&doc, `<v id="%d" m="mod%d" r="%d"><e to="%d"/></v>`, i, rng.Intn(50), rng.Intn(9), rng.Intn(120))
	}
	doc.WriteString("</run>")
	k.doc = doc.Bytes()
	return k
}

// run makes one timed pass and records its thread CPU time.
func (k *refKernel) run() {
	start := threadCPU()
	copy(k.scratch, k.ints)
	slices.Sort(k.scratch)
	sum := sha256.Sum256(k.data)
	n := k.scratch[0] + int(sum[0])
	d := xml.NewDecoder(bytes.NewReader(k.doc))
	for {
		tok, err := d.Token()
		if err == io.EOF {
			break
		}
		if se, ok := tok.(xml.StartElement); ok {
			n += len(se.Attr)
		}
	}
	var head *refNode
	for i := 0; i < 2000; i++ {
		head = &refNode{next: head, name: strconv.Itoa(i)}
	}
	for p := head; p != nil; p = p.next {
		n += len(p.name)
	}
	refSink += n
	k.times = append(k.times, threadCPU()-start)
}

// scale returns refNominal over the median time of passes lo to hi,
// the factor that turns this host's times into the nominal machine's.
func (k *refKernel) scale(lo, hi int) float64 {
	xs := make([]float64, 0, hi-lo)
	for _, d := range k.times[lo:hi] {
		xs = append(xs, float64(d))
	}
	return float64(refNominal) / median(xs)
}

// opScales returns the scale of each of n timed ops. Pass first+j ran
// just before op at[j], at is increasing and at[0] is 0; an op's scale
// comes from the refWindow passes nearest to it.
func (k *refKernel) opScales(first int, at []int, n int) []float64 {
	passes := len(at)
	w := min(refWindow, passes)
	out := make([]float64, n)
	j, cur := 0, 0.0 // j counts the passes that ran before op i
	for i := range out {
		if j < passes && at[j] <= i {
			for j < passes && at[j] <= i {
				j++
			}
			lo := min(max(j-w/2, 0), passes-w)
			cur = k.scale(first+lo, first+lo+w)
		}
		out[i] = cur
	}
	return out
}
