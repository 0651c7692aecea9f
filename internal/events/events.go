package events

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/label"
	"repro/internal/online"
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

// Replay feeds an event stream into an online labeler. It returns the
// labeler and the run vertex IDs in event order. Copy numbering must
// follow the Emit convention (0 = the run, parents before children, loop
// iterations in serial order).
func Replay(s *spec.Spec, skeleton label.Labeling, events []Event) (*online.Labeler, error) {
	l := online.New(s, skeleton)
	copies := map[int]*online.Copy{0: l.Root()}
	for i, e := range events {
		switch e.Kind {
		case CopyStart:
			parent, ok := copies[e.Parent]
			if !ok {
				return nil, fmt.Errorf("events: event %d starts copy %d under unknown parent %d", i, e.Copy, e.Parent)
			}
			if _, dup := copies[e.Copy]; dup {
				return nil, fmt.Errorf("events: event %d restarts copy %d", i, e.Copy)
			}
			c, err := l.StartCopy(parent, e.HNode)
			if err != nil {
				return nil, fmt.Errorf("events: event %d: %w", i, err)
			}
			copies[e.Copy] = c
		case ModuleExec:
			c, ok := copies[e.Copy]
			if !ok {
				return nil, fmt.Errorf("events: event %d executes in unknown copy %d", i, e.Copy)
			}
			orig, ok := s.VertexOf(e.Module)
			if !ok {
				return nil, fmt.Errorf("events: event %d references unknown module %q", i, e.Module)
			}
			if _, err := l.AddExec(c, orig); err != nil {
				return nil, fmt.Errorf("events: event %d: %w", i, err)
			}
		default:
			return nil, fmt.Errorf("events: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return l, nil
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
			return fmt.Errorf("events: unknown kind %d", e.Kind)
		}
		buf = append(buf, '\n')
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// ReadLog parses a log written by WriteLog. Lines are capped at
// bufio.Scanner's default 64KiB and the event count is unbounded; use
// ReadLogLimits when the reader is fed from the wire.
func ReadLog(r io.Reader) ([]Event, error) {
	return ReadLogLimits(r, 0, 0)
}

// ReadLogLimits parses a log written by WriteLog, rejecting lines longer
// than maxLine bytes and streams of more than maxEvents events — the
// bounds a server applies to wire input so a hostile body can neither
// balloon a single token nor an event slice past what the request-size
// cap implies. Zero (or negative) disables either limit, leaving the
// scanner's default 64KiB line cap. The package doc lists what a line
// may hold.
func ReadLogLimits(r io.Reader, maxLine, maxEvents int) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	if maxLine > 0 {
		sc.Buffer(make([]byte, 0, min(maxLine, 64*1024)), maxLine)
	}
	var scratch [7][]byte
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line, fields := splitLine(sc.Bytes(), scratch[:0])
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if maxEvents > 0 && len(events) >= maxEvents {
			return nil, fmt.Errorf("events: line %d: more than %d events in one log", lineNo, maxEvents)
		}
		var e Event
		var err error
		switch {
		case len(fields) == 6 && string(fields[0]) == "copy" && string(fields[2]) == "parent" && string(fields[4]) == "hnode":
			e.Kind = CopyStart
			if e.Copy, err = parseInt(fields[1]); err == nil {
				if e.Parent, err = parseInt(fields[3]); err == nil {
					e.HNode, err = parseInt(fields[5])
				}
			}
		case len(fields) == 4 && string(fields[0]) == "exec" && string(fields[2]) == "copy":
			e.Kind = ModuleExec
			e.Module = spec.ModuleName(fields[1])
			e.Copy, err = parseInt(fields[3])
		default:
			return nil, fmt.Errorf("events: line %d: unrecognized record %q", lineNo, line)
		}
		if err != nil {
			return nil, fmt.Errorf("events: line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return events, nil
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

// parseInt parses a whole field as a decimal int: an optional sign and
// at least one digit, nothing else.
func parseInt(tok []byte) (int, error) {
	digits := tok
	if len(digits) > 0 && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if len(digits) == 0 {
		return 0, fmt.Errorf("integer field %q is not a decimal integer", tok)
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("integer field %q is not a decimal integer", tok)
		}
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err
}
