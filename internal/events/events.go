package events

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
)

// Kind is the event type.
type Kind uint8

const (
	// CopyStart begins a new fork copy or loop iteration.
	CopyStart Kind = iota
	// ModuleExec records one module execution inside a copy.
	ModuleExec
)

// Event is one log record. Copies are numbered by the engine in starting
// order; copy 0 is the run itself and needs no CopyStart.
type Event struct {
	Kind Kind
	// Copy is the subject copy: the started copy for CopyStart, the
	// context copy for ModuleExec.
	Copy int
	// Parent is the enclosing copy (CopyStart only).
	Parent int
	// HNode is the specification hierarchy node of the copy (CopyStart).
	HNode int
	// Module is the executed module (ModuleExec only).
	Module spec.ModuleName
}

// Emit renders a materialized run's ground-truth plan as an event
// stream: copies start in plan order (serial order for loop chains) and
// every module execution appears after its context copy started.
func Emit(r *run.Run, p *plan.Plan) []Event {
	// Assign copy numbers in a DFS over the plan's + nodes.
	copyID := make(map[*plan.Node]int, len(p.Nodes))
	var events []Event
	next := 0
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		copyID[n] = next
		if next > 0 {
			events = append(events, Event{
				Kind:   CopyStart,
				Copy:   next,
				Parent: copyID[plusParent(n)],
				HNode:  n.HNode,
			})
		}
		next++
		for _, minus := range n.Children {
			for _, c := range minus.Children {
				walk(c)
			}
		}
	}
	walk(p.Root)
	for v, ctx := range p.Context {
		events = append(events, Event{
			Kind:   ModuleExec,
			Copy:   copyID[ctx],
			Module: r.Spec.NameOf(r.Origin[v]),
		})
	}
	return events
}

// plusParent returns the + node enclosing n (skipping the − node).
func plusParent(n *plan.Node) *plan.Node {
	if n.Parent == nil {
		return n
	}
	return n.Parent.Parent
}

// WriteLog serializes events as a line-oriented log:
//
//	copy <id> parent <id> hnode <n>
//	exec <module> copy <id>
//
// It renders the whole log into one buffer — the writer's own spare
// capacity when it offers an AvailableBuffer, as *bytes.Buffer and
// *bufio.Writer do — and hands it to w in one Write. An event of unknown
// kind is an error, and then nothing is written.
func WriteLog(w io.Writer, events []Event) error {
	var buf []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		buf = ab.AvailableBuffer()
	}
	buf, err := AppendLog(buf, events)
	if err != nil || len(buf) == 0 {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendLog appends the log WriteLog writes for events to dst and
// returns the extended slice. On an event of unknown kind it returns
// dst unextended and an error. It grows dst once, by an estimate of
// logLineBytes a line, when dst has less room than that.
func AppendLog(dst []byte, events []Event) ([]byte, error) {
	buf := slices.Grow(dst, logLineBytes*len(events))
	for _, e := range events {
		switch e.Kind {
		case CopyStart:
			buf = append(buf, "copy "...)
			buf = strconv.AppendInt(buf, int64(e.Copy), 10)
			buf = append(buf, " parent "...)
			buf = strconv.AppendInt(buf, int64(e.Parent), 10)
			buf = append(buf, " hnode "...)
			buf = strconv.AppendInt(buf, int64(e.HNode), 10)
		case ModuleExec:
			buf = append(buf, "exec "...)
			buf = append(buf, e.Module...)
			buf = append(buf, " copy "...)
			buf = strconv.AppendInt(buf, int64(e.Copy), 10)
		default:
			return dst, fmt.Errorf("events: unknown kind %d", e.Kind)
		}
		buf = append(buf, '\n')
	}
	return buf, nil
}

// logLineBytes is about the length of a log line: "exec v47 copy 123\n"
// is 18 bytes and "copy 123 parent 45 hnode 6\n" 27.
const logLineBytes = 24

// ReadLog parses a log written by WriteLog. Lines are capped at 64KiB,
// bufio.Scanner's default, and the event count is unbounded; use
// ReadLogLimits when the reader is fed from the wire.
func ReadLog(r io.Reader) ([]Event, error) {
	return ReadLogLimits(r, 0, 0)
}

// ReadLogLimits parses a log written by WriteLog, rejecting lines longer
// than maxLine bytes and streams of more than maxEvents events — the
// bounds a server applies to wire input so a hostile body can neither
// balloon a single token nor an event slice past what the request-size
// cap implies. Zero (or negative) disables either limit, leaving the
// default 64KiB line cap. It reads r whole and parses it with
// ParseLog; the package doc lists what a line may hold. A reader that
// knows how much it holds (bytes.Reader, strings.Reader) is read into a
// buffer grown once, and the events slice starts at about one event per
// logLineBytes of it.
func ReadLogLimits(r io.Reader, maxLine, maxEvents int) ([]Event, error) {
	var buf bytes.Buffer
	var dst []Event
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
		dst = make([]Event, 0, l.Len()/logLineBytes+1)
	}
	evs, err := ReadLogInto(dst, &buf, r, nil, maxLine, maxEvents)
	if err != nil {
		return nil, err
	}
	return evs, nil
}

// ReadLogInto reads r whole into buf, which it resets first, and parses
// what it read with ParseLog, appending the events to dst. A read error
// is reported only when every line read before it parses (a read cut
// short parses its last, partial line too), so an error names the first
// bad line whether or not the read failed later. A caller that parses
// many logs passes the same buf and dst each time and allocates nothing
// once they have grown.
func ReadLogInto(dst []Event, buf *bytes.Buffer, r io.Reader, s *spec.Spec, maxLine, maxEvents int) ([]Event, error) {
	buf.Reset()
	_, rerr := buf.ReadFrom(r)
	evs, err := ParseLog(dst, buf.Bytes(), s, maxLine, maxEvents)
	if err == nil && rerr != nil {
		err = fmt.Errorf("events: %w", rerr)
	}
	return evs, err
}

// defaultMaxLine is the line cap when none is given: bufio.Scanner's
// default token size, which ReadLog had before it parsed in place.
const defaultMaxLine = bufio.MaxScanTokenSize

// ParseLog parses the log held in data and appends its events to dst,
// returning the extended slice; on an error it returns the events of
// the lines before the bad one. Lines end at "\n", and a line of
// maxLine bytes or more (its "\n" not counted) is an error, as it was
// for the bufio.Scanner ReadLogLimits once read with; zero or negative
// means 64KiB. More than maxEvents events is an error when maxEvents is
// positive.
//
// The events do not refer to data. A module name s has is the spec's
// own string (spec.Spec.NameOf), so a log of known modules parses with
// no allocation once dst has room; any other name, or every name when s
// is nil, is copied.
func ParseLog(dst []Event, data []byte, s *spec.Spec, maxLine, maxEvents int) ([]Event, error) {
	if maxLine <= 0 {
		maxLine = defaultMaxLine
	}
	var scratch [7][]byte
	n0 := len(dst)
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLine {
			return dst, fmt.Errorf("events: %w", bufio.ErrTooLong)
		}
		line, fields := splitLine(line, scratch[:0])
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if maxEvents > 0 && len(dst)-n0 >= maxEvents {
			return dst, fmt.Errorf("events: line %d: more than %d events in one log", lineNo, maxEvents)
		}
		var e Event
		var err error
		switch {
		case len(fields) == 6 && string(fields[0]) == "copy" && string(fields[2]) == "parent" && string(fields[4]) == "hnode":
			e.Kind = CopyStart
			if e.Copy, err = ParseInt(fields[1]); err == nil {
				if e.Parent, err = ParseInt(fields[3]); err == nil {
					e.HNode, err = ParseInt(fields[5])
				}
			}
		case len(fields) == 4 && string(fields[0]) == "exec" && string(fields[2]) == "copy":
			e.Kind = ModuleExec
			e.Module = moduleName(s, fields[1])
			e.Copy, err = ParseInt(fields[3])
		default:
			return dst, fmt.Errorf("events: line %d: unrecognized record %q", lineNo, line)
		}
		if err != nil {
			return dst, fmt.Errorf("events: line %d: %w", lineNo, err)
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// moduleName returns name as a module name: s's own string when s has
// the module, a copy otherwise.
func moduleName(s *spec.Spec, name []byte) spec.ModuleName {
	if s != nil {
		if v, ok := s.VertexOfBytes(name); ok {
			return s.NameOf(v)
		}
	}
	return spec.ModuleName(name)
}

// splitLine trims a line's surrounding white space and splits it into
// white-space-separated fields, as strings.TrimSpace and strings.Fields
// would. An ASCII line is split in place into dst's spare capacity, and
// a line with more fields than that yields only cap(dst) of them: a
// record has four or six, so a cap of seven tells every other count
// apart. A line with a byte of 0x80 or more goes through bytes.TrimSpace
// and bytes.Fields, whose white space is Unicode's.
func splitLine(line []byte, dst [][]byte) (trimmed []byte, fields [][]byte) {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			trimmed = bytes.TrimSpace(line)
			return trimmed, bytes.Fields(trimmed)
		}
	}
	i, j := 0, len(line)
	for i < j && asciiSpace[line[i]] {
		i++
	}
	for j > i && asciiSpace[line[j-1]] {
		j--
	}
	trimmed = line[i:j]
	for k := 0; k < len(trimmed); {
		if asciiSpace[trimmed[k]] {
			k++
			continue
		}
		start := k
		for k < len(trimmed) && !asciiSpace[trimmed[k]] {
			k++
		}
		if len(dst) == cap(dst) {
			return trimmed, dst
		}
		dst = append(dst, trimmed[start:k])
	}
	return trimmed, dst
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ParseInt parses a whole field as a decimal int: an optional sign and
// at least one digit, nothing else, in the range of int. It is the rule
// every integer field of a log is read by, exported for the stream
// checkpoint header that carries two more.
func ParseInt(tok []byte) (int, error) {
	digits := tok
	neg := false
	if len(digits) > 0 && (digits[0] == '+' || digits[0] == '-') {
		neg, digits = digits[0] == '-', digits[1:]
	}
	if len(digits) == 0 {
		return 0, fmt.Errorf("integer field %q is not a decimal integer", tok)
	}
	v := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("integer field %q is not a decimal integer", tok)
		}
		v = v*10 + int(c-'0') // nine digits cannot overflow
	}
	if len(digits) > 9 {
		// Past nine digits the value may be out of range: strconv says
		// so in its own words.
		v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		return int(v), err
	}
	if neg {
		v = -v
	}
	return v, nil
}
