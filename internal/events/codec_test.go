package events_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workload"
)

// wholeInteger is the documented form of an integer field.
var wholeInteger = regexp.MustCompile(`^[+-]?[0-9]+$`)

// partialIntegerRejection reports whether err is ReadLogLimits
// rejecting, under the package doc's integer rule, a line of input
// whose integer fields are not all whole integers — the one rejection
// the oracle does not share. It checks the line itself, with the
// oracle's own tokenizing, rather than trusting the message.
func partialIntegerRejection(input []byte, err error) bool {
	msg := err.Error()
	rest, ok := strings.CutPrefix(msg, "events: line ")
	if !ok || !strings.Contains(msg, "is not a decimal integer") {
		return false
	}
	num, _, ok := strings.Cut(rest, ":")
	if !ok {
		return false
	}
	n, convErr := strconv.Atoi(num)
	if convErr != nil {
		return false
	}
	sc := bufio.NewScanner(bytes.NewReader(input))
	sc.Buffer(nil, len(input)+1)
	for i := 1; sc.Scan(); i++ {
		if i < n {
			continue
		}
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		var ints []string
		switch {
		case len(fields) == 6 && fields[0] == "copy" && fields[2] == "parent" && fields[4] == "hnode":
			ints = []string{fields[1], fields[3], fields[5]}
		case len(fields) == 4 && fields[0] == "exec" && fields[2] == "copy":
			ints = []string{fields[3]}
		}
		for _, f := range ints {
			if !wholeInteger.MatchString(f) {
				return true
			}
		}
		return false
	}
	return false
}

// oracleParseSpecs are the specifications compareWithOracle also parses
// with, so module names are interned against each: the paper's, whose
// modules the seeds name, and a QBLAST stand-in's.
var oracleParseSpecs = []*spec.Spec{spec.PaperSpec(), workload.MustStandIn("QBLAST", 1)}

// compareWithOracle parses input with ReadLogLimits, and with ParseLog
// with and without a specification, and with the pre-codec parser, and
// fails unless each returns the oracle's events, or an error with the
// same text, or the documented partial-integer rejection. The byte
// parsers must also agree with each other exactly.
func compareWithOracle(t *testing.T, input []byte, maxLine, maxEvents int) {
	t.Helper()
	got, gotErr := events.ReadLogLimits(bytes.NewReader(input), maxLine, maxEvents)
	want, wantErr := events.ReadLogOracle(bytes.NewReader(input), maxLine, maxEvents)
	switch {
	case gotErr != nil && partialIntegerRejection(input, gotErr):
	case gotErr != nil && wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("limits %d/%d, input %q:\nerror %q\noracle error %q", maxLine, maxEvents, input, gotErr, wantErr)
		}
	case gotErr != nil || wantErr != nil:
		t.Fatalf("limits %d/%d, input %q:\nerror %v\noracle error %v", maxLine, maxEvents, input, gotErr, wantErr)
	default:
		sameEvents(t, input, got, want)
	}
	for _, s := range append([]*spec.Spec{nil}, oracleParseSpecs...) {
		parsed, err := events.ParseLog(nil, input, s, maxLine, maxEvents)
		if (err == nil) != (gotErr == nil) || err != nil && err.Error() != gotErr.Error() {
			t.Fatalf("limits %d/%d, input %q: ParseLog error %v, ReadLogLimits error %v", maxLine, maxEvents, input, err, gotErr)
		}
		if err == nil {
			sameEvents(t, input, parsed, got)
		}
	}
}

// sameEvents fails unless got and want hold equal events.
func sameEvents(t *testing.T, input []byte, got, want []events.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("input %q: %d events, oracle %d", input, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("input %q: event %d is %+v, oracle %+v", input, i, got[i], want[i])
		}
	}
}

// liveLogs returns a checkpoint blob and event-log bytes as internal/live
// writes them: a stream over the paper run checkpointed part way, then
// appended to, then left with a torn final record by a crashed append.
// It returns the checkpoint blob, the whole log and the log tail a
// recovery parses after the checkpoint.
func liveLogs(tb testing.TB) (ckpt, log, tail []byte) {
	tb.Helper()
	s := spec.PaperSpec()
	r, p := run.Figure3Run(s)
	evs := events.Emit(r, p)
	st, err := store.NewMem(s, "paper")
	if err != nil {
		tb.Fatal(err)
	}
	skel, err := st.Skeleton(label.TCM{})
	if err != nil {
		tb.Fatal(err)
	}
	ls := live.NewSession(st, "r", skel, nil)
	mid := len(evs) / 2
	for off := 0; off < len(evs)-3; off += 5 {
		end := min(off+5, len(evs)-3)
		if _, err := ls.Append(evs[off:end], off); err != nil {
			tb.Fatal(err)
		}
		if off <= mid && mid < end {
			if err := ls.Checkpoint(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	covered := ls.EventLogBytes()
	if err := st.AppendRunEvents("r", []byte("exec b cop")); err != nil {
		tb.Fatal(err)
	}
	read := func(rc io.ReadCloser, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	ckpt = read(st.Backend().ReadMeta(live.CheckpointMeta("r")))
	log = read(st.ReadRunEvents("r"))
	if _, err := live.Recover(st, "r", skel, nil); err != nil {
		tb.Fatal(err)
	}
	return ckpt, log, log[covered/2:]
}

// oracleSeeds are logs that exercise every branch of both parsers.
func oracleSeeds(tb testing.TB) []string {
	ckpt, log, tail := liveLogs(tb)
	_, body, _ := bytes.Cut(ckpt, []byte("\n"))
	s := workload.MustStandIn("QBLAST", 1)
	r, p := run.GenerateSized(s, rand.New(rand.NewSource(1)), 300)
	var standIn bytes.Buffer
	if err := events.WriteLog(&standIn, events.Emit(r, p)); err != nil {
		tb.Fatal(err)
	}
	return []string{
		string(ckpt), string(body), string(log), string(tail), standIn.String(),
		"",
		"\n\n",
		"# comment only\n",
		"   # indented comment\n\texec a copy 0\n",
		"copy 1 parent 0 hnode 1\nexec a copy 0\n",
		"copy 1 parent 0 hnode 1\r\nexec a copy 1\r\n",
		"copy\t+1  parent\v-0\fhnode 007\n",
		"copy 1\rparent 0 hnode 1\n",
		"copy\u00a01 parent\u20280 hnode\u30001\n",
		"\u0085exec a copy 0\u0085\n",
		"exec \u00e9t\u00e9 copy 3\n",
		"exec a\xffb copy 3\n",
		"exec a copy 9223372036854775807\nexec a copy -9223372036854775808\n",
		"exec a copy 9223372036854775808\n",
		"copy 1 parent 0 hnode 99999999999999999999\n",
		"copy 1 parent 0 hnode 0x1\n",
		"copy 1x parent 0 hnode 1\n",
		"copy 1 parent + hnode 1\n",
		"exec a copy 1_0\n",
		"exec a copy 1junk\n",
		"exec a copy +\n",
		"exec a copy ١\n",
		"copy 1 parent 0 hnode 1 extra\n",
		"copy 1 parent 0 hnode\n",
		"exec a copy 0 extra\n",
		"exec a b c d e f g h\n",
		"garbage\n",
		"exec a copy 0",
		"exec a copy 0\r",
		"exec\ta\tcopy\t0\n\t\n",
		"# a comment\nexec zz copy 0\n",
		"exec v47 copy 0\nexec v4 copy 0\nexec v471 copy 0\n",
		lineOf(4095), lineOf(4096), lineOf(4097),
		lineOf(4095) + "\n" + lineOf(4096) + "\n",
		strings.TrimSuffix(lineOf(4096), "\n"),
		strings.TrimSuffix(lineOf(4095), "\n") + "\r\n",
	}
}

// lineOf returns an exec record of exactly n bytes, its newline not
// counted, naming a module of n-12 bytes.
func lineOf(n int) string {
	return "exec " + strings.Repeat("m", n-len("exec  copy 0")) + " copy 0\n"
}

// FuzzReadLogOracle holds ReadLogLimits, and ParseLog with and without
// a specification, to the bufio/Sscanf parser they replaced, under
// random line and event limits: the same events, or an error with the
// same text, except where the package doc's integer rule rejects a
// field the oracle read a prefix of.
func FuzzReadLogOracle(f *testing.F) {
	for i, seed := range oracleSeeds(f) {
		f.Add([]byte(seed), uint16(0), uint8(0))
		f.Add([]byte(seed), uint16(8+i%24), uint8(i%5))
		f.Add([]byte(seed), uint16(4096), uint8(255))
		f.Add([]byte(seed), uint16(4097), uint8(0))
	}
	f.Fuzz(func(t *testing.T, input []byte, maxLine uint16, maxEvents uint8) {
		compareWithOracle(t, input, int(maxLine), int(maxEvents))
	})
}

// TestParseLogDefaultLineCap holds the default line cap, 64KiB, to the
// oracle's: a line one byte short of it parses, a line of it does not,
// ended by a newline or not.
func TestParseLogDefaultLineCap(t *testing.T) {
	for _, n := range []int{65535, 65536} {
		line := lineOf(n)
		compareWithOracle(t, []byte(line), 0, 0)
		compareWithOracle(t, []byte(strings.TrimSuffix(line, "\n")), 0, 0)
		compareWithOracle(t, []byte("exec a copy 0\n"+line), -1, 0)
	}
	if _, err := events.ParseLog(nil, []byte(lineOf(65536)), nil, 0, 0); err == nil || err.Error() != "events: bufio.Scanner: token too long" {
		t.Fatalf("a 64KiB line: %v", err)
	}
}

// TestParseLogAllocs pins that parsing a stand-in run's log against its
// specification into a slice with room allocates nothing: every module
// name is the specification's own string.
func TestParseLogAllocs(t *testing.T) {
	s := workload.MustStandIn("QBLAST", 1)
	r, p := run.GenerateSized(s, rand.New(rand.NewSource(1)), 1000)
	var log bytes.Buffer
	if err := events.WriteLog(&log, events.Emit(r, p)); err != nil {
		t.Fatal(err)
	}
	dst, err := events.ParseLog(nil, log.Bytes(), s, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		dst, err = events.ParseLog(dst[:0], log.Bytes(), s, 4096, 0)
	}); allocs != 0 || err != nil {
		t.Fatalf("ParseLog: %v allocs, error %v", allocs, err)
	}
}

// TestParseLogOwnsNames pins that no parsed event refers to the bytes
// it was parsed from, with or without a specification: overwriting them
// changes no module name, whether the name was interned or copied.
func TestParseLogOwnsNames(t *testing.T) {
	const log = "exec a copy 0\nexec zz copy 0\r\nexec \u00e9t\u00e9 copy 1"
	for _, s := range []*spec.Spec{nil, spec.PaperSpec()} {
		data := []byte(log)
		evs, err := events.ParseLog(nil, data, s, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 'z'
		}
		if evs[0].Module != "a" || evs[1].Module != "zz" || evs[2].Module != "\u00e9t\u00e9" {
			t.Fatalf("spec %v: names changed with the bytes: %+v", s != nil, evs)
		}
	}
}

// TestReadLogRejectsPartialIntegers pins the one divergence from the
// oracle: a field that starts with an integer but does not end with it
// is an error naming the line, where the oracle kept the leading number.
func TestReadLogRejectsPartialIntegers(t *testing.T) {
	for _, c := range []struct {
		log    string
		oracle events.Event // what the oracle made of the last line
	}{
		{"copy 1 parent 0 hnode 0x1", events.Event{Kind: events.CopyStart, Copy: 1, Parent: 0, HNode: 0}},
		{"exec a copy 1_0", events.Event{Kind: events.ModuleExec, Copy: 1, Module: "a"}},
		{"exec a copy 1junk", events.Event{Kind: events.ModuleExec, Copy: 1, Module: "a"}},
		{"exec a copy 2.5", events.Event{Kind: events.ModuleExec, Copy: 2, Module: "a"}},
		{"copy 1 parent 0 hnode 1\ncopy 2 parent 1 hnode 3e2", events.Event{Kind: events.CopyStart, Copy: 2, Parent: 1, HNode: 3}},
	} {
		want, err := events.ReadLogOracle(strings.NewReader(c.log), 0, 0)
		if err != nil || want[len(want)-1] != c.oracle {
			t.Fatalf("oracle on %q: %v, %v; want it to keep %+v", c.log, want, err, c.oracle)
		}
		_, err = events.ReadLog(strings.NewReader(c.log))
		line := strings.Count(c.log, "\n") + 1
		if err == nil || !strings.HasPrefix(err.Error(), "events: line "+strconv.Itoa(line)+":") {
			t.Errorf("ReadLog(%q) = %v, want an error for line %d", c.log, err, line)
		}
	}
	// Signs, leading zeros and the int range stay as they were.
	evs, err := events.ReadLog(strings.NewReader("copy +1 parent -0 hnode 007\nexec a copy -9223372036854775808\n"))
	if err != nil {
		t.Fatal(err)
	}
	if evs[0] != (events.Event{Kind: events.CopyStart, Copy: 1, HNode: 7}) || evs[1].Copy != math.MinInt64 {
		t.Fatalf("got %+v", evs)
	}
}

// plainWriter hides any AvailableBuffer method of the writer it wraps.
type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestWriteLogMatchesFprintf holds WriteLog to the fmt.Fprintf writer it
// replaced, byte for byte, so stored logs and checkpoints replay as they
// did: extreme and negative integers, non-ASCII module names, output
// past one 4 KiB bufio chunk, and writers with and without spare
// capacity to render into.
func TestWriteLogMatchesFprintf(t *testing.T) {
	evs := []events.Event{
		{Kind: events.CopyStart, Copy: 0, Parent: 0, HNode: 0},
		{Kind: events.CopyStart, Copy: -1, Parent: math.MinInt, HNode: math.MaxInt},
		{Kind: events.ModuleExec, Copy: math.MaxInt, Module: "a"},
		{Kind: events.ModuleExec, Copy: -42, Module: "\u00e9t\u00e9-\u65e5\u672c"},
		{Kind: events.ModuleExec, Copy: 7, Module: ""},
	}
	for i := 0; i < 400; i++ {
		evs = append(evs,
			events.Event{Kind: events.CopyStart, Copy: i * 1000003, Parent: i, HNode: i % 9},
			events.Event{Kind: events.ModuleExec, Copy: -i, Module: spec.ModuleName("m" + strconv.Itoa(i))})
	}
	var want bytes.Buffer
	if err := events.WriteLogOracle(&want, evs); err != nil {
		t.Fatal(err)
	}
	if want.Len() <= 4096 {
		t.Fatalf("log is %d bytes; the test needs more than one bufio chunk", want.Len())
	}
	for _, n := range []int{0, 1, 5, len(evs)} {
		var oracle, buf, plain bytes.Buffer
		if err := events.WriteLogOracle(&oracle, evs[:n]); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("prefix\n")
		bw := bufio.NewWriterSize(&plain, 64)
		for _, w := range []io.Writer{&buf, plainWriter{bw}} {
			if err := events.WriteLog(w, evs[:n]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimPrefix(buf.String(), "prefix\n"); got != oracle.String() {
			t.Fatalf("%d events into a bytes.Buffer: got %q, want %q", n, got, oracle.String())
		}
		if plain.String() != oracle.String() {
			t.Fatalf("%d events into a plain writer: got %q, want %q", n, plain.String(), oracle.String())
		}
		var viaBufio bytes.Buffer
		bw = bufio.NewWriterSize(&viaBufio, 16)
		if err := events.WriteLog(bw, evs[:n]); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if viaBufio.String() != oracle.String() {
			t.Fatalf("%d events into a bufio.Writer: got %q, want %q", n, viaBufio.String(), oracle.String())
		}
	}
	// An unknown kind is an error for both writers.
	bad := append(evs[:3:3], events.Event{Kind: 9})
	if err := events.WriteLog(io.Discard, bad); err == nil {
		t.Fatal("WriteLog accepted an unknown kind")
	} else if oerr := events.WriteLogOracle(io.Discard, bad); oerr == nil || oerr.Error() != err.Error() {
		t.Fatalf("error %v, oracle %v", err, oerr)
	}
	// A write error reaches the caller.
	boom := errors.New("boom")
	if err := events.WriteLog(failWriter{boom}, evs[:2]); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }
