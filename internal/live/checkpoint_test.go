package live

import (
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/spec"
)

// TestParseCheckpointHeader pins the checkpoint header: "ckpt", then
// exactly two whole integer fields by the event log's integer rule,
// neither negative. Fmt's "ckpt %d %d" read the leading number of a
// field and ignored anything after the second, so "ckpt 5 7junk" and
// "ckpt 5 7 9" read as (5, 7).
func TestParseCheckpointHeader(t *testing.T) {
	sp := spec.PaperSpec()
	const body = "exec a copy 0\n"
	for _, c := range []struct {
		header        string
		seq, logBytes int
		err           string // a prefix of the error; "" for none
	}{
		{"ckpt 1 14", 1, 14, ""},
		{"ckpt 0 0", 0, 0, ""},
		{"ckpt\t1  14\r", 1, 14, ""},
		{"ckpt +1 0014", 1, 14, ""},
		{"ckpt 5 7junk", 0, 0, `malformed header "ckpt 5 7junk": integer field "7junk" is not a decimal integer`},
		{"ckpt 5junk 7", 0, 0, `malformed header "ckpt 5junk 7": integer field "5junk" is not a decimal integer`},
		{"ckpt 5 7 9", 0, 0, `malformed header "ckpt 5 7 9": want "ckpt <seq> <log bytes>"`},
		{"ckpt 5", 0, 0, `malformed header "ckpt 5": want`},
		{"ckpt", 0, 0, `malformed header "ckpt": want`},
		{"", 0, 0, `malformed header "": want`},
		{"ckpx 1 14", 0, 0, `malformed header "ckpx 1 14": want`},
		{"ckpt 0x1 14", 0, 0, `malformed header "ckpt 0x1 14": integer field "0x1"`},
		{"ckpt 1 +", 0, 0, `malformed header "ckpt 1 +": integer field "+"`},
		{"ckpt 99999999999999999999 0", 0, 0, `malformed header "ckpt 99999999999999999999 0": strconv.ParseInt: parsing "99999999999999999999": value out of range`},
		{"ckpt -1 14", 0, 0, `negative header values in "ckpt -1 14"`},
		{"ckpt 1 -14", 0, 0, `negative header values in "ckpt 1 -14"`},
	} {
		seq, logBytes, evs, err := parseCheckpoint([]byte(c.header+"\n"+body), sp)
		switch {
		case c.err != "":
			if err == nil || !strings.HasPrefix(err.Error(), c.err) {
				t.Errorf("%q: error %v, want %q", c.header, err, c.err)
			}
		case err != nil:
			t.Errorf("%q: %v", c.header, err)
		case seq != c.seq || logBytes != int64(c.logBytes) || len(evs) != 1 || evs[0] != (events.Event{Kind: events.ModuleExec, Module: "a"}):
			t.Errorf("%q: (%d, %d, %+v), want (%d, %d) and one event", c.header, seq, logBytes, evs, c.seq, c.logBytes)
		}
	}
	if _, _, _, err := parseCheckpoint([]byte("ckpt 1 14"), sp); err == nil || err.Error() != "missing header line" {
		t.Errorf("no newline: %v", err)
	}
}
