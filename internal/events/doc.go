// Package events models workflow-engine execution logs: a stream of
// copy-start and module-execution events, like the logs the paper notes
// Taverna produces ("the execution plan and context can be directly
// extracted from the system log"). It provides an emitter that renders an
// execution tree as a valid event stream, a text serialization for
// log files, and a consumer that drives the online labeler — so a run can
// be labeled straight from an engine log with no graph reconstruction.
//
// # Replay
//
// Applier is the one path from events to the online labeler: Replay,
// the live streaming sessions (internal/live) and the Section 9
// experiment all go through it. Check refuses a batch that breaks the
// Emit convention (copies numbered densely in start order, copy 0 the
// run, a copy started before anything refers to it), names a module
// the specification does not have, or starts or executes where the
// hierarchy does not allow; it changes nothing but its record of the
// batch. Apply then applies what Check accepted, with the module origins
// Check resolved and every column grown once by the counts Check found,
// and cannot fail: the hierarchy and subgraph rules are the labeler's
// own predicates, online.CheckChild and online.CheckExec. So Replay refuses a log that breaks the dense
// numbering, such as one that starts copy 2 first, exactly as a live
// stream refuses it. The applier keeps no copy of the events it
// applied; a live session, which compares resends with them, keeps its
// own 8-byte record of each and rebuilds the rest from the applier's
// copy table and namer.
//
// # Log format
//
// A log has one event per line:
//
//	copy <id> parent <id> hnode <n>
//	exec <module> copy <id>
//
// WriteLog renders each field with one space between fields and a
// newline after each record, the bytes fmt.Fprintf wrote with the
// format strings above before the writer was rewritten, so logs and
// checkpoints that are already stored replay unchanged.
//
// # Parsing
//
// ParseLog is the one parser. It parses a log held in memory in place,
// one pass of line splits over the bytes, and appends the events to a
// slice the caller may reuse. Given a specification, it gives each
// module the specification has the specification's own name string
// (spec.Spec.VertexOfBytes, then NameOf), so a batch of known modules
// parses with no allocation; any other name, or every name without a
// specification, is copied, so no event refers to the bytes it was
// parsed from and an unknown module still reaches Applier.Check.
// ReadLogInto reads a reader whole into a reused buffer and parses it
// (the server's append handler calls it with the store's
// specification and pooled scratch); ReadLog and ReadLogLimits read
// into fresh memory and parse without one; live.Recover parses a
// stream's log and checkpoint with the specification.
//
// Lines split where bufio.Scanner split them, which ReadLogLimits read
// with before: a line ends at "\n", a last line needs none, and a line
// of maxLine bytes or more (64KiB when no limit is given), its "\n" not
// counted and a "\r" before it counted, fails with the scanner's error
// text. A read that fails is reported only after every line read
// before it parses, the line it cut short included. What a line may
// hold is what the bufio/Sscanf parser accepted:
//
//   - white space around and between fields is any run of Unicode white
//     space, as strings.Fields sees it (lines of ASCII bytes are split
//     by hand, others by bytes.Fields);
//   - a line that is empty after trimming, or whose first field starts
//     with "#", is skipped;
//   - a record is exactly the four or six fields above, with the
//     keywords spelled as shown, and a module name is any field;
//   - an integer field is an optional "+" or "-" and decimal digits,
//     with leading zeros allowed, in the range of int (ParseInt); a
//     value out of range is strconv.ParseInt's error.
//
// Every error starts with "events: line N:", except a read error or an
// over-long line, which starts with "events:".
//
// AppendLog renders events into a caller's buffer, the bytes WriteLog
// writes; a live session renders each batch's fresh events into a
// pooled buffer before it appends them to the event log, and renders
// its checkpoint from the events it rebuilds one at a time.
//
// # The oracle
//
// The tests keep the bufio/Sscanf parser and the fmt.Fprintf writer as
// oracles. TestWriteLogMatchesFprintf holds WriteLog to the writer's
// bytes, and FuzzReadLogOracle holds ReadLogLimits, and ParseLog with
// and without a specification, to the parser: the same events, or an
// error with the same text. The one divergence,
// pinned by TestReadLogRejectsPartialIntegers, is deliberate: the old
// parser read integer fields with %d, which stops at the first byte
// that is not a digit, and nothing checked the rest of a record's last
// field. It read "hnode 0x1" as hnode 0 and "copy 1_0" or "copy 1junk"
// as copy 1, so a server applied a wrong event where it should have
// answered 400.
// The byte parser requires the whole field to be an integer, and
// rejects any other with an error naming the line.
package events
