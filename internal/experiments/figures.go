package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/workload"
)

// qblast returns the QBLAST stand-in used by Figures 12-14.
func qblast(cfg Config) (*sizedRunSet, error) {
	s, err := workload.StandIn("QBLAST", cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &sizedRunSet{spec: "QBLAST", runs: makeRuns(s, cfg.Sizes, cfg.Seed+100)}, nil
}

type sizedRunSet struct {
	spec string
	runs []sizedRun
}

// Fig12 regenerates Figure 12: maximum and average label length versus
// run size for QBLAST under TCM+SKL, against the 3·log n asymptote.
func Fig12(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	set, err := qblast(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 12",
		Title:  "Label length for QBLAST (bits)",
		Header: []string{"run size (nR)", "max label", "avg label", "3·log2(nR)"},
		Notes:  []string{"max stays below 3·log nR + log nG and grows logarithmically"},
	}
	skel, err := label.TCM{}.Build(setSpec(set))
	if err != nil {
		return nil, err
	}
	for _, sr := range set.runs {
		l, err := core.LabelRun(sr.r, skel)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(sr.r.NumVertices()),
			fmt.Sprint(l.MaxLabelBits()),
			fmtF(l.AvgLabelBits()),
			fmtF(3 * log2(sr.r.NumVertices())),
		})
	}
	return res, nil
}

func setSpec(set *sizedRunSet) *dag.Graph { return set.runs[0].r.Spec.Graph }

// Fig13 regenerates Figure 13: construction time versus run size, in the
// default setting (plan reconstructed from the graph) and with the
// execution plan and context given.
func Fig13(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	set, err := qblast(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 13",
		Title:  "Construction time for QBLAST (ms)",
		Header: []string{"run size (nR)", "default (ms)", "with plan+context (ms)", "ns/vertex default"},
		Notes:  []string{"both settings scale linearly; plan extraction dominates the default setting"},
	}
	skel, err := label.TCM{}.Build(setSpec(set))
	if err != nil {
		return nil, err
	}
	for _, sr := range set.runs {
		deflt := timeIt(5*time.Millisecond, func() {
			if _, err := core.LabelRun(sr.r, skel); err != nil {
				panic(err)
			}
		})
		withPlan := timeIt(5*time.Millisecond, func() {
			if _, err := core.LabelRunWithPlan(sr.r, sr.truth, skel); err != nil {
				panic(err)
			}
		})
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(sr.r.NumVertices()),
			fmtMS(deflt),
			fmtMS(withPlan),
			fmtF(float64(deflt.Nanoseconds()) / float64(sr.r.NumVertices())),
		})
	}
	return res, nil
}

// Fig14 regenerates Figure 14: query time versus run size for TCM+SKL
// (constant).
func Fig14(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	set, err := qblast(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 14",
		Title:  "Query time for QBLAST, TCM+SKL (ns/query)",
		Header: []string{"run size (nR)", "ns/query"},
		Notes:  []string{"flat across three orders of magnitude of run size"},
	}
	skel, err := label.TCM{}.Build(setSpec(set))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for _, sr := range set.runs {
		l, err := core.LabelRun(sr.r, skel)
		if err != nil {
			return nil, err
		}
		ns := queryNanos(rng, sr.r.NumVertices(), cfg.Queries, l.Reachable)
		res.Rows = append(res.Rows, []string{fmt.Sprint(sr.r.NumVertices()), fmtF(ns)})
	}
	return res, nil
}

// fig15Spec builds the synthetic workload shared by Figures 15-17:
// nG=100, mG=200, |TG|=10, [TG]=4.
func fig15Spec(cfg Config) (*sizedRunSet, error) {
	s, err := workload.Synthesize(rand.New(rand.NewSource(cfg.Seed)), workload.Params{
		NG: 100, MG: 200, TGSize: 10, TGDepth: 4,
	})
	if err != nil {
		return nil, err
	}
	return &sizedRunSet{spec: "synthetic-100", runs: makeRuns(s, cfg.Sizes, cfg.Seed+200)}, nil
}

// Fig15 regenerates Figure 15: maximum label length with amortized
// skeleton storage, TCM+SKL over k=1,2,10 runs versus BFS+SKL.
func Fig15(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	set, err := fig15Spec(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 15",
		Title:  "Amortized max label length (bits), synthetic nG=100 mG=200",
		Header: []string{"run size (nR)", "TCM+SKL k=1", "TCM+SKL k=2", "TCM+SKL k=10", "BFS+SKL"},
		Notes: []string{
			"TCM+SKL charges nG²/(k·nR) amortized bits for the closure matrix; the gap to BFS+SKL vanishes for large runs",
		},
	}
	skel, err := label.TCM{}.Build(setSpec(set))
	if err != nil {
		return nil, err
	}
	for _, sr := range set.runs {
		l, err := core.LabelRun(sr.r, skel)
		if err != nil {
			return nil, err
		}
		base := float64(l.MaxLabelBits())
		nR := float64(sr.r.NumVertices())
		amort := func(k float64) float64 {
			return base + float64(skel.IndexBits())/(k*nR)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(sr.r.NumVertices()),
			fmtF(amort(1)), fmtF(amort(2)), fmtF(amort(10)), fmtF(base),
		})
	}
	return res, nil
}

// Fig16 regenerates Figure 16: amortized construction time, TCM+SKL
// (k=1,2,10), BFS+SKL, and TCM applied directly to the run (capped at
// 25.6K vertices as in the paper's memory-bound runs).
func Fig16(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	set, err := fig15Spec(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 16",
		Title:  "Amortized construction time (ms), synthetic nG=100 mG=200",
		Header: []string{"run size (nR)", "TCM+SKL k=1", "TCM+SKL k=2", "TCM+SKL k=10", "BFS+SKL", "TCM (direct)"},
		Notes:  []string{"TCM direct is polynomial and only tractable to 25.6K vertices (as in the paper)"},
	}
	spc := set.runs[0].r.Spec
	var skel label.Labeling
	skelBuild := timeIt(5*time.Millisecond, func() {
		var err error
		skel, err = (label.TCM{}).Build(spc.Graph)
		if err != nil {
			panic(err)
		}
	})
	bfsSkel, err := label.BFS{}.Build(spc.Graph)
	if err != nil {
		return nil, err
	}
	for _, sr := range set.runs {
		sklTime := timeIt(5*time.Millisecond, func() {
			if _, err := core.LabelRun(sr.r, skel); err != nil {
				panic(err)
			}
		})
		bfsTime := timeIt(5*time.Millisecond, func() {
			if _, err := core.LabelRun(sr.r, bfsSkel); err != nil {
				panic(err)
			}
		})
		amort := func(k float64) string {
			return fmtF(float64(sklTime.Nanoseconds())/1e6 + float64(skelBuild.Nanoseconds())/1e6/k)
		}
		direct := "-"
		if sr.r.NumVertices() <= 25_600 {
			d := timeIt(5*time.Millisecond, func() {
				if _, ok := sr.r.Graph.TransitiveClosure(); !ok {
					panic("cyclic run")
				}
			})
			direct = fmtMS(d)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(sr.r.NumVertices()),
			amort(1), amort(2), amort(10),
			fmtMS(bfsTime),
			direct,
		})
	}
	return res, nil
}

// Fig17 regenerates Figure 17: query time for TCM+SKL, BFS+SKL, TCM
// (direct) and BFS (direct).
func Fig17(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	set, err := fig15Spec(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 17",
		Title:  "Query time (ns/query), synthetic nG=100 mG=200",
		Header: []string{"run size (nR)", "TCM+SKL", "BFS+SKL", "TCM (direct)", "BFS (direct)"},
		Notes: []string{
			"TCM+SKL and TCM are flat; BFS+SKL *decreases* with run size (more queries decided by context alone);",
			"BFS grows linearly and trails by orders of magnitude",
		},
	}
	spc := set.runs[0].r.Spec
	tcmSkel, err := label.TCM{}.Build(spc.Graph)
	if err != nil {
		return nil, err
	}
	bfsSkel, err := label.BFS{}.Build(spc.Graph)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	for _, sr := range set.runs {
		nR := sr.r.NumVertices()
		lt, err := core.LabelRun(sr.r, tcmSkel)
		if err != nil {
			return nil, err
		}
		lb, err := core.LabelRunWithPlan(sr.r, sr.truth, bfsSkel)
		if err != nil {
			return nil, err
		}
		tcmSklNs := queryNanos(rng, nR, cfg.Queries, lt.Reachable)
		bfsSklNs := queryNanos(rng, nR, min(cfg.Queries, 100_000), lb.Reachable)
		direct := "-"
		if nR <= 25_600 {
			if closure, ok := sr.r.Graph.TransitiveClosure(); ok {
				direct = fmtF(queryNanos(rng, nR, cfg.Queries, closure.Reachable))
			}
		}
		searcher := dag.NewSearcher(sr.r.Graph)
		bfsQueries := min(cfg.Queries, max(200, 2_000_000/nR))
		bfsNs := queryNanos(rng, nR, bfsQueries, searcher.ReachableBFS)
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(nR), fmtF(tcmSklNs), fmtF(bfsSklNs), direct, fmtF(bfsNs),
		})
	}
	return res, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// figSpecSweep builds the three specs of Figures 18-20: nG in {50, 100,
// 200} with mG/nG=2, |TG|=10, [TG]=4.
func figSpecSweep(cfg Config) ([]*sizedRunSet, error) {
	var out []*sizedRunSet
	for i, nG := range []int{50, 100, 200} {
		s, err := workload.Synthesize(rand.New(rand.NewSource(cfg.Seed+int64(i))), workload.Params{
			NG: nG, MG: 2 * nG, TGSize: 10, TGDepth: 4,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, &sizedRunSet{
			spec: fmt.Sprintf("nG=%d", nG),
			runs: makeRuns(s, cfg.Sizes, cfg.Seed+300+int64(i)),
		})
	}
	return out, nil
}

// Fig18 regenerates Figure 18: amortized max label length (k=2) for
// TCM+SKL across specification sizes.
func Fig18(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	sets, err := figSpecSweep(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 18",
		Title:  "Influence of specification: amortized max label length, TCM+SKL, k=2 (bits)",
		Header: []string{"run size (nR)", "nG=50", "nG=100", "nG=200"},
		Notes: []string{
			"small specs win for small runs (cheaper skeleton storage) and lose slightly for large runs (larger plans)",
		},
	}
	type point struct {
		nR   int
		bits float64
	}
	cols := make([][]point, len(sets))
	for i, set := range sets {
		skel, err := label.TCM{}.Build(set.runs[0].r.Spec.Graph)
		if err != nil {
			return nil, err
		}
		for _, sr := range set.runs {
			l, err := core.LabelRun(sr.r, skel)
			if err != nil {
				return nil, err
			}
			bits := float64(l.MaxLabelBits()) + float64(skel.IndexBits())/(2*float64(sr.r.NumVertices()))
			cols[i] = append(cols[i], point{sr.r.NumVertices(), bits})
		}
	}
	for j := range cols[0] {
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(cfg.Sizes[j]),
			fmtF(cols[0][j].bits), fmtF(cols[1][j].bits), fmtF(cols[2][j].bits),
		})
	}
	return res, nil
}

// Fig19 regenerates Figure 19: amortized construction time (k=2) for
// TCM+SKL across specification sizes.
func Fig19(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	sets, err := figSpecSweep(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 19",
		Title:  "Influence of specification: amortized construction time, TCM+SKL, k=2 (ms)",
		Header: []string{"run size (nR)", "nG=50", "nG=100", "nG=200"},
	}
	cols := make([][]string, len(sets))
	for i, set := range sets {
		spc := set.runs[0].r.Spec
		var skel label.Labeling
		skelBuild := timeIt(2*time.Millisecond, func() {
			var err error
			skel, err = (label.TCM{}).Build(spc.Graph)
			if err != nil {
				panic(err)
			}
		})
		for _, sr := range set.runs {
			sklTime := timeIt(5*time.Millisecond, func() {
				if _, err := core.LabelRun(sr.r, skel); err != nil {
					panic(err)
				}
			})
			total := float64(sklTime.Nanoseconds())/1e6 + float64(skelBuild.Nanoseconds())/1e6/2
			cols[i] = append(cols[i], fmtF(total))
		}
	}
	for j := range cols[0] {
		res.Rows = append(res.Rows, []string{fmt.Sprint(cfg.Sizes[j]), cols[0][j], cols[1][j], cols[2][j]})
	}
	return res, nil
}

// Fig20 regenerates Figure 20: query time for BFS+SKL across
// specification sizes (decreasing in run size, increasing in nG).
func Fig20(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	sets, err := figSpecSweep(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Figure 20",
		Title:  "Influence of specification: query time, BFS+SKL (ns/query)",
		Header: []string{"run size (nR)", "nG=50", "nG=100", "nG=200"},
		Notes:  []string{"query time falls with run size and rises with spec size (graph search on G dominates)"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	cols := make([][]string, len(sets))
	for i, set := range sets {
		skel, err := label.BFS{}.Build(set.runs[0].r.Spec.Graph)
		if err != nil {
			return nil, err
		}
		for _, sr := range set.runs {
			l, err := core.LabelRunWithPlan(sr.r, sr.truth, skel)
			if err != nil {
				return nil, err
			}
			ns := queryNanos(rng, sr.r.NumVertices(), min(cfg.Queries, 100_000), l.Reachable)
			cols[i] = append(cols[i], fmtF(ns))
		}
	}
	for j := range cols[0] {
		res.Rows = append(res.Rows, []string{fmt.Sprint(cfg.Sizes[j]), cols[0][j], cols[1][j], cols[2][j]})
	}
	return res, nil
}
