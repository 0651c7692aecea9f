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
// hierarchy does not allow; it changes nothing. Apply then applies
// what Check accepted, and cannot fail: the hierarchy and subgraph
// rules are the labeler's own predicates, online.CheckChild and
// online.CheckExec. So Replay refuses a log that breaks the dense
// numbering, such as one that starts copy 2 first, exactly as a live
// stream refuses it.
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
// ReadLogLimits reads lines with a bufio.Scanner, so a line ends at
// "\n" and a trailing "\r" is dropped, and the line and event limits
// fail with the errors they always had. It splits each line in place
// without converting it to a string. What a line may hold is what the
// bufio/Sscanf parser accepted:
//
//   - white space around and between fields is any run of Unicode white
//     space, as strings.Fields sees it (lines of ASCII bytes are split
//     by hand, others by bytes.Fields);
//   - a line that is empty after trimming, or whose first field starts
//     with "#", is skipped;
//   - a record is exactly the four or six fields above, with the
//     keywords spelled as shown, and a module name is any field;
//   - an integer field is an optional "+" or "-" and decimal digits,
//     with leading zeros allowed, in the range of int; a value out of
//     range is strconv.ParseInt's error.
//
// Every error starts with "events: line N:", except a read error or an
// over-long line, which starts with "events:".
//
// # The oracle
//
// The tests keep the bufio/Sscanf parser and the fmt.Fprintf writer as
// oracles. TestWriteLogMatchesFprintf holds WriteLog to the writer's
// bytes, and FuzzReadLogOracle holds ReadLogLimits to the parser: the
// same events, or an error with the same text. The one divergence,
// pinned by TestReadLogRejectsPartialIntegers, is deliberate: the old
// parser read integer fields with %d, which stops at the first byte
// that is not a digit, and nothing checked the rest of a record's last
// field. It read "hnode 0x1" as hnode 0 and "copy 1_0" or "copy 1junk"
// as copy 1, so a server applied a wrong event where it should have
// answered 400.
// ReadLogLimits requires the whole field to be an integer, and rejects
// any other with an error naming the line.
package events
