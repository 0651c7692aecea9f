package events

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/online"
	"repro/internal/run"
	"repro/internal/spec"
)

// EventError reports an event that does not apply to the stream's state
// (unknown module, out-of-sequence copy, wrong hierarchy parent) at Index
// within the checked batch. Nothing from the batch was applied.
type EventError struct {
	Index int
	Err   error
}

func (e *EventError) Error() string { return fmt.Sprintf("events: event %d: %v", e.Index, e.Err) }
func (e *EventError) Unwrap() error { return e.Err }

// Applier replays an event stream into an online labeler. It owns the
// labeler, the labeler's handle of every started copy by copy ID, the
// copy table (each copy's hierarchy node and parent copy, in start
// order: the execution tree run.MaterializeTable rebuilds) and the
// namer that names each module execution as it is applied.
//
// Check holds a batch to the Emit convention: copies are numbered
// densely in start order (copy 0 is the run itself and is never
// started), and a copy is started before anything refers to it. The
// hierarchy and subgraph rules are the labeler's own (online.CheckChild
// and online.CheckExec), so a batch Check accepts always applies.
type Applier struct {
	sp     *spec.Spec
	lab    *online.Labeler
	copies []*online.Copy
	table  run.CopyTable
	names  *run.Namer
	// The batch Check last accepted: its length, the hierarchy nodes of
	// the copies it starts, and the origin of each of its module
	// executions in order, which Apply uses rather than resolve the
	// names again. checked is -1 when there is none.
	checked int
	started []int32
	origins []dag.VertexID
}

// NewApplier returns an applier holding an empty run of s: the root
// copy (copy 0) and no module executions.
func NewApplier(s *spec.Spec, skeleton label.Labeling) *Applier {
	l := online.New(s, skeleton)
	return &Applier{
		sp:      s,
		lab:     l,
		copies:  []*online.Copy{l.Root()},
		table:   run.CopyTable{HNode: []int32{0}, Parent: []int32{-1}},
		names:   run.NewNamerFromOrigins(s, nil),
		checked: -1,
	}
}

// Labeler returns the online labeler the applied events grew.
func (a *Applier) Labeler() *online.Labeler { return a.lab }

// Table returns the copy table of the copies started so far, the root
// included.
func (a *Applier) Table() run.CopyTable { return a.table }

// Namer names the applied module executions, one per vertex in event
// order.
func (a *Applier) Namer() *run.Namer { return a.names }

// Check checks a batch against the applier's state as if its events
// were applied in order, and changes nothing but the record of the
// batch Apply reads. The first event that would not apply is reported
// as an *EventError carrying its index in evs.
func (a *Applier) Check(evs []Event) error {
	a.checked, a.started, a.origins = -1, emptied(a.started), emptied(a.origins)
	base := len(a.copies)
	hnodeOf := func(id int) (int, bool) {
		switch {
		case id < 0:
		case id < base:
			return int(a.table.HNode[id]), true
		case id-base < len(a.started):
			return int(a.started[id-base]), true
		}
		return 0, false
	}
	for i, e := range evs {
		switch e.Kind {
		case CopyStart:
			if next := base + len(a.started); e.Copy != next {
				return &EventError{i, fmt.Errorf("copy %d out of sequence (next is %d; copies are numbered densely in start order)", e.Copy, next)}
			}
			parent, ok := hnodeOf(e.Parent)
			if !ok {
				return &EventError{i, fmt.Errorf("unknown parent copy %d", e.Parent)}
			}
			if err := online.CheckChild(a.sp, parent, e.HNode); err != nil {
				return &EventError{i, err}
			}
			a.started = append(a.started, int32(e.HNode))
		case ModuleExec:
			h, ok := hnodeOf(e.Copy)
			if !ok {
				return &EventError{i, fmt.Errorf("unknown copy %d", e.Copy)}
			}
			orig, ok := a.sp.VertexOf(e.Module)
			if !ok {
				return &EventError{i, fmt.Errorf("unknown module %q", e.Module)}
			}
			if err := online.CheckExec(a.sp, h, orig); err != nil {
				return &EventError{i, err}
			}
			a.origins = append(a.origins, orig)
		default:
			return &EventError{i, fmt.Errorf("unknown event kind %d", e.Kind)}
		}
	}
	a.checked = len(evs)
	return nil
}

// Apply applies the batch Check last accepted, which evs must be,
// against the applier's current state: each copy start starts a copy in
// the labeler and the table, each module execution adds a vertex of the
// origin Check resolved to the labeler and the namer. Every column grows
// once, by the counts Check found. The labeler refuses only what Check
// refuses, so Apply cannot fail on a checked batch; it panics on any
// other.
func (a *Applier) Apply(evs []Event) {
	if len(evs) != a.checked {
		panic(fmt.Sprintf("events: Apply of an unchecked batch of %d events", len(evs)))
	}
	a.checked = -1
	copies, execs := len(a.started), len(a.origins)
	a.lab.Grow(copies, execs)
	a.names.Grow(execs)
	a.copies = slices.Grow(a.copies, copies)
	a.table.HNode = slices.Grow(a.table.HNode, copies)
	a.table.Parent = slices.Grow(a.table.Parent, copies)
	x := 0
	for i, e := range evs {
		var err error
		switch e.Kind {
		case CopyStart:
			var c *online.Copy
			if c, err = a.lab.StartCopy(a.copies[e.Parent], e.HNode); err == nil {
				a.copies = append(a.copies, c)
				a.table.HNode = append(a.table.HNode, int32(e.HNode))
				a.table.Parent = append(a.table.Parent, int32(e.Parent))
			}
		case ModuleExec:
			orig := a.origins[x]
			x++
			if _, err = a.lab.AddExec(a.copies[e.Copy], orig); err == nil {
				a.names.Add(orig)
			}
		}
		if err != nil {
			panic(fmt.Sprintf("events: Apply of an unchecked batch: event %d: %v", i, err))
		}
	}
	a.started, a.origins = emptied(a.started), emptied(a.origins)
}

// maxKeptBatch bounds the capacity of the batch record (started and
// origins) an applier keeps between batches, so a stream that once took
// a large batch does not pin its record for the rest of its life.
const maxKeptBatch = 4096

// emptied returns s emptied for the next batch: its own storage up to
// maxKeptBatch entries, none beyond.
func emptied[T any](s []T) []T {
	if cap(s) > maxKeptBatch {
		return nil
	}
	return s[:0]
}

// Replay feeds an event stream into a new online labeler and returns it;
// the run's vertex IDs are the module executions in event order. The
// stream must follow the Emit convention (see Applier), and a stream
// that does not is refused whole with an *EventError.
func Replay(s *spec.Spec, skeleton label.Labeling, events []Event) (*online.Labeler, error) {
	a := NewApplier(s, skeleton)
	if err := a.Check(events); err != nil {
		return nil, err
	}
	a.Apply(events)
	return a.Labeler(), nil
}
