package bench

// The solver-acceleration benchmark: execute the largest corpus program
// (fabric) with the normalized memo off (baseline: every full query is a
// fresh bit-blast), cold and warm, and measure where the solver time
// goes. All modes must produce identical verdicts, witnesses and
// comparable metrics; only wall time and the acceleration telemetry may
// move.
//
// The result is emitted by cmd/p4bench -exp solver as BENCH_solver.json.

import (
	"bytes"
	"encoding/json"
	"strings"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/solver"
	"p4assert/internal/sym"
)

// SolverRun is one acceleration-mode row.
type SolverRun struct {
	Mode string `json:"mode"`
	// WallSeconds is the whole symbolic execution; SolverSeconds is the
	// time spent inside solver.Check (both from the repetition with the
	// lowest solver time).
	WallSeconds   float64 `json:"wall_seconds"`
	SolverSeconds float64 `json:"solver_seconds"`
	// The acceleration telemetry of that repetition.
	MemoHits       int64 `json:"memo_hits"`
	SatConflicts   int64 `json:"sat_conflicts"`
	LearnedClauses int64 `json:"learned_clauses"`
}

// SolverResult is the BENCH_solver.json payload.
type SolverResult struct {
	Experiment   string `json:"experiment"`
	Program      string `json:"program"`
	ProgramLines int    `json:"program_lines"`
	// Queries/FullQueries describe the workload (identical in every mode).
	Queries     int64 `json:"queries"`
	FullQueries int64 `json:"full_queries"`
	// WarmMemoHits mirrors the memo_warm row's memo hits at top level —
	// the CI smoke assertion that the memo actually answers queries.
	WarmMemoHits int64 `json:"warm_memo_hits"`
	// ByteIdentical records that every mode's verdicts, witnesses and
	// comparable metrics matched the baseline's exactly.
	ByteIdentical bool        `json:"byte_identical"`
	Runs          []SolverRun `json:"runs"`
	// Speedup is baseline solver-seconds over warm-memo solver-seconds:
	// the steady-state gain once the run-wide memo has seen the corpus
	// shapes.
	Speedup float64 `json:"speedup"`
}

// solverModes orders the benchmark rows from no memo to a warm one.
var solverModes = []struct {
	name   string
	cfg    solver.Config
	shared bool // reuse one warmed run-wide memo across repetitions
}{
	{"baseline", solver.Config{DisableMemo: true}, false},
	{"memo_cold", solver.Config{}, false},
	{"memo_warm", solver.Config{}, true},
}

// Solver runs the benchmark. repeats stabilizes wall-clock numbers
// (best-of by solver time).
func Solver(repeats int) (*SolverResult, error) {
	if repeats < 1 {
		repeats = 1
	}
	subject := LargestProgram()
	m, err := core.BuildModel(subject.Name+".p4", subject.Source, core.Options{})
	if err != nil {
		return nil, err
	}

	res := &SolverResult{
		Experiment:    "solver",
		Program:       subject.Name,
		ProgramLines:  strings.Count(subject.Source, "\n"),
		ByteIdentical: true,
	}

	var wantComparable []byte
	var baselineSolver, warmSolver float64
	for _, mode := range solverModes {
		var shared *solver.Memo
		if mode.shared {
			shared = solver.NewMemo(solver.SharedMemoCap)
			// Warm-up execution, untimed: the steady state of a run-wide
			// memo that has already seen the corpus query shapes.
			if _, err := sym.Execute(m, sym.Options{Solver: mode.cfg, SolverMemo: shared}); err != nil {
				return nil, err
			}
		}
		row := SolverRun{Mode: mode.name, SolverSeconds: -1}
		for i := 0; i < repeats; i++ {
			opts := sym.Options{Solver: mode.cfg, SolverMemo: shared}
			if !mode.shared && !mode.cfg.DisableMemo {
				opts.SolverMemo = solver.NewMemo(solver.SharedMemoCap)
			}
			t0 := time.Now()
			r, err := sym.Execute(m, opts)
			if err != nil {
				return nil, err
			}
			wall := time.Since(t0).Seconds()

			a := r.Metrics.Solver.Accel
			if sec := float64(a.WallNS) / 1e9; row.SolverSeconds < 0 || sec < row.SolverSeconds {
				row.SolverSeconds = sec
				row.WallSeconds = wall
				row.MemoHits = a.MemoHits
				row.SatConflicts = a.Conflicts
				row.LearnedClauses = a.LearnedClauses
			}

			cmp, err := comparableResult(r)
			if err != nil {
				return nil, err
			}
			if wantComparable == nil {
				wantComparable = cmp
				res.Queries = r.Metrics.Solver.Queries
				res.FullQueries = r.Metrics.Solver.FullQueries
			} else if !bytes.Equal(wantComparable, cmp) {
				res.ByteIdentical = false
			}
		}
		switch mode.name {
		case "baseline":
			baselineSolver = row.SolverSeconds
		case "memo_warm":
			warmSolver = row.SolverSeconds
			res.WarmMemoHits = row.MemoHits
		}
		res.Runs = append(res.Runs, row)
	}

	if warmSolver <= 0 {
		warmSolver = 1e-9
	}
	res.Speedup = baselineSolver / warmSolver
	return res, nil
}

// comparableResult serializes the parts of an execution result that must
// be identical in every acceleration mode: canonical violations and the
// comparable metrics (the Accel section is json-excluded by design).
func comparableResult(r *sym.Result) ([]byte, error) {
	vs := append([]*sym.Violation(nil), r.Violations...)
	core.CanonicalizeViolations(vs)
	return json.Marshal(struct {
		Violations []*sym.Violation
		Metrics    sym.Metrics
		Exhausted  bool
	}{vs, r.Metrics, r.Exhausted})
}
