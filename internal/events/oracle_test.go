package events

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/spec"
)

// This file keeps the event-log writer and parser that predate the byte
// codec in events.go, unchanged except for their names, as the oracles
// TestWriteLogMatchesFprintf and FuzzReadLogOracle hold WriteLog and
// ReadLogLimits to.

// writeLogOracle serializes events as a line-oriented log:
//
//	copy <id> parent <id> hnode <n>
//	exec <module> copy <id>
func writeLogOracle(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		var err error
		switch e.Kind {
		case CopyStart:
			_, err = fmt.Fprintf(bw, "copy %d parent %d hnode %d\n", e.Copy, e.Parent, e.HNode)
		case ModuleExec:
			_, err = fmt.Fprintf(bw, "exec %s copy %d\n", e.Module, e.Copy)
		default:
			err = fmt.Errorf("events: unknown kind %d", e.Kind)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readLogOracle parses a log written by WriteLog, rejecting lines longer
// than maxLine bytes and streams of more than maxEvents events — the
// bounds a server applies to wire input so a hostile body can neither
// balloon a single token nor an event slice past what the request-size
// cap implies. Zero (or negative) disables either limit, leaving the
// scanner's default 64KiB line cap.
func readLogOracle(r io.Reader, maxLine, maxEvents int) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	if maxLine > 0 {
		sc.Buffer(make([]byte, 0, min(maxLine, 64*1024)), maxLine)
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if maxEvents > 0 && len(events) >= maxEvents {
			return nil, fmt.Errorf("events: line %d: more than %d events in one log", lineNo, maxEvents)
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "copy" && len(fields) == 6 && fields[2] == "parent" && fields[4] == "hnode":
			var e Event
			e.Kind = CopyStart
			if _, err := fmt.Sscanf(line, "copy %d parent %d hnode %d", &e.Copy, &e.Parent, &e.HNode); err != nil {
				return nil, fmt.Errorf("events: line %d: %w", lineNo, err)
			}
			events = append(events, e)
		case fields[0] == "exec" && len(fields) == 4 && fields[2] == "copy":
			var e Event
			e.Kind = ModuleExec
			e.Module = spec.ModuleName(fields[1])
			if _, err := fmt.Sscanf(fields[3], "%d", &e.Copy); err != nil {
				return nil, fmt.Errorf("events: line %d: %w", lineNo, err)
			}
			events = append(events, e)
		default:
			return nil, fmt.Errorf("events: line %d: unrecognized record %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return events, nil
}
