package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/online"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/workload"
)

// AblationSpecSchemes measures SKL under every available specification
// labeling scheme at one run size: the robustness claim of Section 8.2
// extended beyond TCM and BFS.
func AblationSpecSchemes(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	s, err := workload.StandIn("QBLAST", cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	target := cfg.Sizes[len(cfg.Sizes)-1]
	r, _ := run.GenerateSized(s, rng, target)
	res := &Result{
		ID:     "Ablation A1",
		Title:  fmt.Sprintf("SKL robustness to the specification scheme (QBLAST, nR=%d)", r.NumVertices()),
		Header: []string{"skeleton scheme", "spec index bits", "spec build", "SKL label (ms)", "query ns", "context-only ns"},
		Notes:  []string{"run labeling time and label size are scheme-independent; only fall-through query cost varies"},
	}
	for _, scheme := range label.All() {
		l, skelT, sklT, err := buildSKL(r, scheme)
		if err != nil {
			return nil, err
		}
		q := min(cfg.Queries, 100_000)
		ns := queryNanos(rng, r.NumVertices(), q, l.Reachable)
		ctxNs := queryNanos(rng, r.NumVertices(), q, func(u, v dag.VertexID) bool {
			return l.AnsweredByContext(u, v)
		})
		res.Rows = append(res.Rows, []string{
			scheme.Name(),
			fmt.Sprint(l.Skeleton().IndexBits()),
			skelT.Round(time.Microsecond).String(),
			fmtMS(sklT),
			fmtF(ns),
			fmtF(ctxNs),
		})
	}
	return res, nil
}

// AblationContextShare measures, per run size, the fraction of random
// queries decided by the context encoding alone — the mechanism behind
// the decreasing BFS+SKL query time in Figures 17 and 20.
func AblationContextShare(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	s, err := workload.StandIn("QBLAST", cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Ablation A2",
		Title:  "Share of queries answered by context encoding alone (QBLAST)",
		Header: []string{"run size (nR)", "context-only share"},
	}
	skel, err := label.BFS{}.Build(s.Graph)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	for _, sr := range makeRuns(s, cfg.Sizes, cfg.Seed+400) {
		l, err := core.LabelRunWithPlan(sr.r, sr.truth, skel)
		if err != nil {
			return nil, err
		}
		n := sr.r.NumVertices()
		hits, total := 0, 0
		for q := 0; q < min(cfg.Queries, 200_000); q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			total++
			if l.AnsweredByContext(u, v) {
				hits++
			}
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n), fmtF(float64(hits) / float64(total)),
		})
	}
	return res, nil
}

// DataOverhead measures the Section 6 data labels: label length factor
// (k+1) and data-dependency query cost versus the fan-out of shared items.
func DataOverhead(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	s, err := workload.StandIn("QBLAST", cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	target := cfg.Sizes[len(cfg.Sizes)/2]
	r, _ := run.GenerateSized(s, rng, target)
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		return nil, err
	}
	mod, err := core.LabelRun(r, skel)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Section 6",
		Title:  fmt.Sprintf("Data provenance labels (QBLAST, nR=%d)", r.NumVertices()),
		Header: []string{"share prob", "items", "max fan-in k", "label factor (k+1)", "data query ns"},
		Notes:  []string{"data labels cost a factor k+1 in length and k in query time over module labels"},
	}
	for _, shareProb := range []float64{0, 0.25, 0.5, 1} {
		ann := provdata.RandomItems(r, rng, 1.2, shareProb)
		dl, err := provdata.LabelData(ann, mod)
		if err != nil {
			return nil, err
		}
		nItems := len(ann.Items)
		q := min(cfg.Queries, 100_000)
		pairs := workload.QueryPairs(rng, nItems, min(q, 1<<16))
		start := time.Now()
		total := 0
		for total < q {
			for _, p := range pairs {
				dl.DependsOn(provdata.ItemID(p[0]), provdata.ItemID(p[1]))
				total++
				if total >= q {
					break
				}
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(total)
		k := ann.MaxFanIn()
		res.Rows = append(res.Rows, []string{
			fmtF(shareProb), fmt.Sprint(nItems), fmt.Sprint(k), fmt.Sprint(k + 1), fmtF(ns),
		})
	}
	return res, nil
}

// OnlineAppend measures the Section 9 prototype: cost of labeling module
// executions online as the run grows, versus relabeling from scratch.
func OnlineAppend(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	s, err := workload.StandIn("QBLAST", cfg.Seed)
	if err != nil {
		return nil, err
	}
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Section 9",
		Title:  "Online labeling prototype: incremental append vs full relabel (QBLAST)",
		Header: []string{"run size (nR)", "online total (ms)", "ns/exec", "renumbers", "full relabel (ms)"},
		Notes:  []string{"online labels are available immediately after each module execution"},
	}
	for _, sr := range makeRuns(s, cfg.Sizes, cfg.Seed+500) {
		// The log is emitted off the clock: the online column times
		// events.Replay alone, the path a streamed run takes.
		evs := events.Emit(sr.r, sr.truth)
		var l *online.Labeler
		onlineTime := timeIt(5*time.Millisecond, func() {
			var err error
			l, err = events.Replay(s, skel, evs)
			if err != nil {
				panic(err)
			}
		})
		relabel := timeIt(5*time.Millisecond, func() {
			if _, err := core.LabelRun(sr.r, skel); err != nil {
				panic(err)
			}
		})
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(sr.r.NumVertices()),
			fmtMS(onlineTime),
			fmtF(float64(onlineTime.Nanoseconds()) / float64(sr.r.NumVertices())),
			fmt.Sprint(l.Renumbers()),
			fmtMS(relabel),
		})
	}
	return res, nil
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	Name string
	Run  func(Config) (*Result, error)
}

// All returns every experiment in report order.
func All() []Experiment {
	return []Experiment{
		{"table1", Table1},
		{"table2", Table2},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"fig15", Fig15},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"fig18", Fig18},
		{"fig19", Fig19},
		{"fig20", Fig20},
		{"schemes", SpecSchemes},
		{"ablation-spec", AblationSpecSchemes},
		{"ablation-context", AblationContextShare},
		{"data", DataOverhead},
		{"online", OnlineAppend},
	}
}

// ByName returns the experiment with the given name.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
