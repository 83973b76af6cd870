package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"p4assert/internal/opt"
	"p4assert/internal/p4"
	"p4assert/internal/slicer"
	"p4assert/internal/solver"
	"p4assert/internal/submodel"
	"p4assert/internal/sym"
	"p4assert/internal/translate"
)

// layerSample accumulates per-layer values over one pass. Keys are the
// per-layer metric names, plus the partial sums behind the ratios (the
// "_" keys), which aggregatePasses folds away.
type layerSample map[string]float64

// add folds o into s: sums, except the frontier high-water mark, which
// is a maximum.
func (s layerSample) add(o layerSample) {
	for k, v := range o {
		if k == "sym.max_frontier" {
			s[k] = max(s[k], v)
			continue
		}
		s[k] += v
	}
}

// tracedRun is the outcome of one layer-by-layer verification.
type tracedRun struct {
	verdict verdict
	// counts holds the deterministic work counters, named as in the
	// untraced report's telemetry counters.
	counts map[string]int64
	layers layerSample
}

// tracedVerify runs core.VerifySource's pipeline one public layer call at
// a time, timing each: p4.Parse, (*p4.Program).Check,
// translate.Translate, opt.Apply, slicer.Slice, then submodel.Split and
// submodel.Run or sym.Execute, with a fresh run-wide solver memo per
// verification as core creates. Each call's span goes to log under id;
// nothing is traced inside the program. The solver's own wall time comes
// from its solver_wall_ns counter.
func tracedVerify(in *input, log *spanLog, id int) (*tracedRun, error) {
	o := in.opts
	L := layerSample{}
	// lap closes the span of one layer call begun at t0, adding its
	// duration to the layer's metric.
	lap := func(name string, t0 time.Time) time.Duration {
		end := time.Now()
		log.add(id, name, "verify", t0, end)
		L[name+"_s"] += end.Sub(t0).Seconds()
		return end.Sub(t0)
	}

	t0 := time.Now()
	prog, err := p4.Parse(in.filename, in.source)
	lap("p4.parse", t0)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", in.label, err)
	}
	t0 = time.Now()
	err = prog.Check()
	lap("p4.check", t0)
	if err != nil {
		return nil, fmt.Errorf("%s: check: %w", in.label, err)
	}
	t0 = time.Now()
	m, err := translate.Translate(prog, translate.Options{
		Rules:              o.Rules,
		RegisterCellLimit:  o.RegisterCellLimit,
		AutoValidityChecks: o.AutoValidityChecks,
	})
	lap("translate.translate", t0)
	if err != nil {
		return nil, fmt.Errorf("%s: translate: %w", in.label, err)
	}
	if o.O3 || o.Opt {
		t0 = time.Now()
		if o.O3 {
			m = opt.Apply(m, opt.O3())
		} else {
			m = opt.Apply(m, opt.Passes{ConstFold: true, DeadCode: true, Simplify: true})
		}
		lap("opt.apply", t0)
	}
	var sliceErr error
	if o.Slice {
		t0 = time.Now()
		sliced, err := slicer.Slice(m)
		lap("slicer.slice", t0)
		if err != nil {
			sliceErr = err
			L["slicer.refused"]++
		} else {
			m = sliced
		}
	}

	symOpts := sym.Options{
		MaxCallDepth: o.MaxCallDepth,
		MaxPaths:     o.MaxPaths,
		Opt:          o.Opt,
		CollectTests: o.CollectTests,
		Solver:       o.Solver,
	}
	if !o.Solver.DisableMemo {
		symOpts.SolverMemo = solver.NewMemo(solver.SharedMemoCap)
	}
	var res *sym.Result
	submodels := 0
	if o.Parallel > 0 {
		symOpts.CollectTests = false
		t0 = time.Now()
		subs := submodel.Split(m)
		lap("submodel.split", t0)
		// submodel.Run splits again before it executes; the split is
		// split_s-sized, a small part of run_s.
		t0 = time.Now()
		pr, err := submodel.Run(m, symOpts, o.Parallel)
		lap("submodel.run", t0)
		if err != nil {
			return nil, fmt.Errorf("%s: submodel run: %w", in.label, err)
		}
		res = &pr.Agg
		submodels = len(pr.PerModel)
		L["submodel.count"] += float64(len(subs))
		L["_worst_instructions"] += float64(pr.WorstInstructions)
		L["_parallel_instructions"] += float64(pr.Agg.Metrics.Instructions)
	} else {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 = time.Now()
		res, err = sym.Execute(m, symOpts)
		exec := lap("sym.execute", t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("%s: execute: %w", in.label, err)
		}
		L["sym.self_s"] += (exec - time.Duration(res.Metrics.Solver.Accel.WallNS)).Seconds()
		L["sym.alloc_bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
		L["sym.gc_cycles"] += float64(after.NumGC - before.NumGC)
	}

	mt := res.Metrics
	sv := mt.Solver
	L["sym.paths"] += float64(mt.Paths)
	L["sym.forks"] += float64(mt.Forks)
	L["sym.instructions"] += float64(mt.Instructions)
	L["sym.killed_infeasible"] += float64(mt.KilledInfeasible)
	L["sym.max_frontier"] = float64(mt.MaxFrontier)
	L["solver.wall_s"] += float64(sv.Accel.WallNS) / 1e9
	L["solver.queries"] += float64(sv.Queries)
	L["solver.quick_sat"] += float64(sv.QuickSAT)
	L["solver.quick_unsat"] += float64(sv.QuickUNSAT)
	L["solver.memo_hits"] += float64(sv.Accel.MemoHits)
	L["solver.full"] += float64(sv.FullQueries)
	L["solver.bitblast_clauses"] += float64(sv.BitblastClauses)
	L["solver.session_reuse_hits"] += float64(sv.Accel.SessionReuseHits)
	L["solver.portfolio_fresh_wins"] += float64(sv.Accel.PortfolioFreshWins)
	L["sat.decisions"] += float64(sv.Accel.Decisions)
	L["sat.conflicts"] += float64(sv.Accel.Conflicts)
	L["sat.learned"] += float64(sv.Accel.LearnedClauses)

	return &tracedRun{
		verdict: verdict{violatedIDs(res.Violations), mt.Paths, res.Exhausted, sliceErr},
		counts: map[string]int64{
			"paths":            mt.Paths,
			"instructions":     mt.Instructions,
			"forks":            mt.Forks,
			"solver_queries":   sv.Queries,
			"solver_full":      sv.FullQueries,
			"bitblast_clauses": sv.BitblastClauses,
			"submodels":        int64(submodels),
		},
		layers: L,
	}, nil
}

// span is one timed call of the traced pass. The spans of one unit of
// work (a verification or a service round trip) share its ID; Parent
// names the enclosing span.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the traced pass began
	End    float64 `json:"end_s"`
}

// spanLog keeps the traced pass's spans in memory; write saves them when
// the pass has ended.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(id int, name, parent string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{id, name, parent, start.Sub(l.base).Seconds(), end.Sub(l.base).Seconds()})
	l.mu.Unlock()
}

// write saves the spans as JSON lines to path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countNames maps each compared telemetry counter to its per-layer
// metric; these counts must repeat exactly run to run and equal the
// untraced run's.
var countNames = []struct{ counter, layer string }{
	{"paths", "sym.paths"},
	{"instructions", "sym.instructions"},
	{"forks", "sym.forks"},
	{"solver_queries", "solver.queries"},
	{"solver_full", "solver.full"},
	{"bitblast_clauses", "solver.bitblast_clauses"},
	{"submodels", "submodel.count"},
}

// sameCounts compares the traced counters with the untraced report's
// telemetry counters (which omit "submodels" on sequential runs).
func sameCounts(label string, traced, untraced map[string]int64) error {
	for _, c := range countNames {
		if traced[c.counter] != untraced[c.counter] {
			return fmt.Errorf("%s: traced %s=%d, untraced %d: the traced orchestration drifted from core's",
				label, c.counter, traced[c.counter], untraced[c.counter])
		}
	}
	return nil
}

// aggregatePasses reduces per-pass samples to the reported values:
// medians for times and for counts that depend on caches and timing,
// exact values for the deterministic counters (which must agree across
// passes), and the ratios computed from those.
func aggregatePasses(passes []layerSample) (map[string]float64, error) {
	exact := map[string]bool{}
	for _, c := range countNames {
		exact[c.layer] = true
	}
	keys := map[string]bool{}
	for _, p := range passes {
		for k := range p {
			keys[k] = true
		}
	}
	out := map[string]float64{}
	var drift []string
	for k := range keys {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[k]
		}
		out[k] = median(xs)
		if exact[k] {
			for _, x := range xs[1:] {
				if x != xs[0] {
					drift = append(drift, k)
					break
				}
			}
		}
	}
	out["solver.memo_hit_ratio"] = ratio(out["solver.memo_hits"], out["solver.queries"])
	out["solver.portfolio_win_ratio"] = ratio(out["solver.portfolio_fresh_wins"], out["solver.full"])
	out["submodel.worst_share"] = ratio(out["_worst_instructions"], out["_parallel_instructions"])
	delete(out, "_worst_instructions")
	delete(out, "_parallel_instructions")
	if len(drift) > 0 {
		return out, fmt.Errorf("deterministic counters differ between passes: %s", strings.Join(drift, ", "))
	}
	return out, nil
}

// countsLine renders the deterministic counters for the log, so runs can
// be compared and cited.
func countsLine(vals map[string]float64) string {
	var parts []string
	for _, c := range countNames {
		parts = append(parts, fmt.Sprintf("%s=%.0f", c.layer, vals[c.layer]))
	}
	return strings.Join(parts, " ")
}
