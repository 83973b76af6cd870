package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"p4assert/internal/core"
	"p4assert/internal/progs"
	"p4assert/internal/rules"
	"p4assert/internal/sym"
	"p4assert/internal/whippersnapper"
)

// input is one local verification request with its independent check.
type input struct {
	label    string
	filename string
	source   string
	opts     core.Options
	check    func(verdict) error
}

// verdict is the part of a report the checks read. Both the untraced
// core.Report and the traced layer-by-layer run produce one.
type verdict struct {
	violated  []int // sorted assertion IDs
	paths     int64
	exhausted bool
	sliceErr  error
}

func verdictOf(rep *core.Report) verdict {
	return verdict{violatedIDs(rep.Violations), rep.Metrics.Paths, rep.Exhausted, rep.SliceErr}
}

func violatedIDs(vs []*sym.Violation) []int {
	var ids []int
	for _, v := range vs {
		ids = append(ids, v.AssertID)
	}
	slices.Sort(ids)
	return ids
}

// The Fig. 9 workloads: closed loops of this many callers (nproc on the
// reference host), all verifying the same seeded program.
const sweepCallers = 2

func runFig9c(r *run) error {
	cfg := whippersnapper.Default(2)
	cfg.RulesPerTable = 120
	return runLocal(r, sweepCallers, func() ([]*input, error) {
		rng := rand.New(rand.NewPCG(r.seed, 0xf19c))
		rs, err := rules.Parse(renderRules(rng, cfg, cfg.Tables, cfg.RulesPerTable))
		if err != nil {
			return nil, err
		}
		return []*input{sweepInput("fig9c", cfg, rs)}, nil
	})
}

func runFig9a(r *run) error {
	cfg := whippersnapper.Default(14)
	return runLocal(r, sweepCallers, func() ([]*input, error) {
		return []*input{sweepInput("fig9a", cfg, nil)}, nil
	})
}

// renderRules writes a control-plane configuration for a Whippersnapper
// program in the rules text format: perTable exact-match entries for each
// of the first tables, on distinct 16-bit keys, each with an action and
// an argument, all drawn from rng.
func renderRules(rng *rand.Rand, cfg whippersnapper.Config, tables, perTable int) string {
	var b strings.Builder
	for t := 0; t < tables; t++ {
		actions := cfg.Actions
		if t == 0 {
			actions = cfg.ActionsFirst
		}
		used := map[uint64]bool{}
		for len(used) < perTable {
			key := rng.Uint64N(1 << 16)
			if used[key] {
				continue
			}
			used[key] = true
			fmt.Fprintf(&b, "table_%d act_%d_%d 0x%04x => %d\n", t, t, rng.IntN(actions), key, rng.Uint64N(1<<16))
		}
	}
	return b.String()
}

// sweepInput verifies a Whippersnapper program under default options and
// checks its path count against the closed form.
func sweepInput(label string, cfg whippersnapper.Config, rs *rules.RuleSet) *input {
	want := cfg.PathCount()
	return &input{
		label:    label,
		filename: "ws.p4",
		source:   whippersnapper.Generate(cfg),
		opts:     core.Options{Rules: rs},
		check: func(v verdict) error {
			if v.paths != want || v.exhausted || len(v.violated) != 0 {
				return fmt.Errorf("%s: paths=%d exhausted=%t violated=%v, want paths=%d and no violation",
					label, v.paths, v.exhausted, v.violated, want)
			}
			return nil
		},
	}
}

// corpusPrograms are the Table 2 programs plus fabric and dcp4.
var corpusPrograms = []string{"dapper", "stag", "netpaxos", "ts_switching", "vss", "mri", "fabric", "dcp4"}

func runCorpus(r *run) error {
	return runLocal(r, 1, corpusInputs)
}

// corpusInputs builds the corpus matrix: every program under Original,
// O3, Opt, Slice, Constraints and Parallel=2, plus the §5.5 combined
// recipe on dapper.
func corpusInputs() ([]*input, error) {
	var cells []*input
	for _, name := range corpusPrograms {
		p, err := progs.Get(name)
		if err != nil {
			return nil, err
		}
		var rs *rules.RuleSet
		if p.Rules != "" {
			if rs, err = rules.Parse(p.Rules); err != nil {
				return nil, fmt.Errorf("%s rules: %w", name, err)
			}
		}
		add := func(variant, source string, opts core.Options) {
			opts.Rules = rs
			cells = append(cells, corpusCell(p, variant, source, opts))
		}
		add("Original", p.Source, core.Options{})
		add("O3", p.Source, core.Options{O3: true})
		add("Opt", p.Source, core.Options{Opt: true})
		add("Slice", p.Source, core.Options{Slice: true})
		add("Constraints", p.ConstrainedSource(), core.Options{})
		add("Parallel", p.Source, core.Options{Parallel: 2})
		if name == "dapper" {
			add("Combined", p.ConstrainedSource(), core.Options{O3: true, Opt: true, Parallel: 2})
		}
	}
	return cells, nil
}

// corpusCell checks a corpus verdict against the program's hand-written
// expected violations. Slicing MRI's recursive parser must be refused
// (the paper's Table 2 "-"); every other slice must succeed.
func corpusCell(p *progs.Program, variant, source string, opts core.Options) *input {
	want := slices.Clone(p.ExpectedViolations)
	slices.Sort(want)
	label := p.Name + "/" + variant
	refuse := opts.Slice && p.Name == "mri"
	return &input{
		label:    label,
		filename: p.Name + ".p4",
		source:   source,
		opts:     opts,
		check: func(v verdict) error {
			if !slices.Equal(v.violated, want) || v.exhausted {
				return fmt.Errorf("%s: violated=%v exhausted=%t, want %v", label, v.violated, v.exhausted, want)
			}
			if opts.Slice && refuse != (v.sliceErr != nil) {
				return fmt.Errorf("%s: slice error %v, want refusal=%t", label, v.sliceErr, refuse)
			}
			return nil
		},
	}
}

// order deals inputs in passes, each pass a fresh seeded permutation.
type order struct {
	rng   *rand.Rand
	cells []*input
	perm  []int
	pos   int
}

func newOrder(cells []*input, seed, stream uint64) *order {
	return &order{rng: rand.New(rand.NewPCG(seed, stream)), cells: cells}
}

func (o *order) next() *input {
	if o.pos == len(o.perm) {
		o.perm = o.rng.Perm(len(o.cells))
		o.pos = 0
	}
	in := o.cells[o.perm[o.pos]]
	o.pos++
	return in
}

// runLocal measures a local workload: set-up, then either the closed
// loop over core.VerifySource or the traced pass.
func runLocal(r *run, callers int, setup func() ([]*input, error)) error {
	cells, err := timeSetup(r, 21, setup, nil)
	if err != nil {
		return err
	}
	if r.trace {
		return traceLocal(r, cells)
	}
	orders := make([]*order, callers)
	for c := range orders {
		orders[c] = newOrder(cells, r.seed, uint64(c))
	}
	h := startHeapSampler()
	l := closedLoop(r, callers, r.window, func(c int) (time.Duration, error) {
		in := orders[c].next()
		t0 := time.Now()
		rep, err := core.VerifySource(in.filename, in.source, in.opts)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", in.label, err)
		}
		err = in.check(verdictOf(rep))
		return time.Since(t0), err
	})
	h.end(r)
	r.report(l, callers)
	r.reportFailures()
	return nil
}

// traceLocal is the traced pass of a local workload. One caller takes
// the inputs in the same seeded order and runs each twice: untraced
// through core.VerifySource, then layer by layer (traced.go). Both runs
// are checked, and their deterministic counters must agree. A pass is
// one full round of the inputs; the layer metrics are per pass.
func traceLocal(r *run, cells []*input) error {
	o := newOrder(cells, r.seed, 0)
	var plain, traced time.Duration
	var passes []layerSample
	cur := layerSample{}
	done := 0
	start := time.Now()
	for time.Since(start) < r.window {
		in := o.next()
		t0 := time.Now()
		rep, err := core.VerifySource(in.filename, in.source, in.opts)
		dPlain := time.Since(t0)
		r.attempted++
		if err == nil {
			err = in.check(verdictOf(rep))
		}
		if err != nil {
			r.fail(err)
			continue
		}
		t0 = time.Now()
		tr, err := tracedVerify(in, r.spans, done)
		dTraced := time.Since(t0)
		r.spans.add(done, "verify", "", t0, t0.Add(dTraced))
		r.attempted++
		if err == nil {
			err = in.check(tr.verdict)
		}
		if err == nil {
			err = sameCounts(in.label, tr.counts, rep.Telemetry.Counters)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		plain += dPlain
		traced += dTraced
		cur.add(tr.layers)
		if done++; done%len(cells) == 0 {
			passes = append(passes, cur)
			cur = layerSample{}
		}
	}
	if len(passes) == 0 {
		return fmt.Errorf("no complete pass of %d inputs in the window", len(cells))
	}
	vals, err := aggregatePasses(passes)
	if err != nil {
		r.fail(err)
	}
	vals["trace.throughput_ratio"] = ratio(plain.Seconds(), traced.Seconds())
	r.setLayers(vals)
	r.note("traced pass: %d pass(es) of %d input(s); layer times are medians per pass", len(passes), len(cells))
	r.note("deterministic counters per pass: %s", countsLine(vals))
	r.note("tracing overhead: traced throughput = %.4f x untraced (%d pairs)", vals["trace.throughput_ratio"], done)
	r.reportFailures()
	return nil
}
