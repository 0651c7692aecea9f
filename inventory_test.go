package repro_test

import (
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro"
)

// The operator-facing knobs, pinned: a flag or config field added or
// removed shows up here as a reviewed diff rather than slipping in.

// provserveFlags is every provserve flag, sorted.
var provserveFlags = []string{
	"addr",
	"breaker-cooldown",
	"breaker-threshold",
	"cache",
	"ingest",
	"max-batch",
	"max-inflight",
	"max-ingest-bytes",
	"max-runs",
	"queue-depth",
	"retry",
	"scheme",
	"store",
	"stream",
	"stream-ttl",
}

// serverConfigFields is every exported field of repro.ServerConfig,
// sorted.
var serverConfigFields = []string{
	"BreakerCooldown",
	"BreakerThreshold",
	"CacheSize",
	"EnableIngest",
	"EnableStream",
	"Logf",
	"MaxBatch",
	"MaxInflight",
	"MaxIngestBytes",
	"MaxRuns",
	"QueueDepth",
	"Scheme",
	"Store",
}

func TestServerConfigInventory(t *testing.T) {
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeFor[repro.ServerConfig]()) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, serverConfigFields) {
		t.Errorf("repro.ServerConfig fields = %q,\nwant %q", got, serverConfigFields)
	}
}

func TestProvserveFlagInventory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds provserve")
	}
	bin := buildProvserve(t, t.TempDir())
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("provserve -h: %v\n%s", err, out)
	}
	// flag.PrintDefaults writes each flag as "  -name [type]" on a line
	// of its own, its usage text on the next, tab-indented.
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ := strings.Cut(rest, " ")
			got = append(got, name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, provserveFlags) {
		t.Errorf("provserve flags = %q,\nwant %q", got, provserveFlags)
	}
}
