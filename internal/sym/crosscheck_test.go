package sym

import (
	"reflect"
	"testing"

	"p4assert/internal/model"
	"p4assert/internal/opt"
	"p4assert/internal/p4"
	"p4assert/internal/progs"
	"p4assert/internal/rules"
	"p4assert/internal/solver"
	"p4assert/internal/translate"
	"p4assert/internal/whippersnapper"
)

// crossCheck makes every incremental solver query of the test re-ask the
// same constraints through a from-scratch Checker.Check, failing on any
// difference in verdict, Quick flag, model or comparable stats. It returns
// the number of queries compared so far.
func crossCheck(t *testing.T) func() int {
	t.Helper()
	n := 0
	checkHook = func(pc *solver.Path, got solver.Result, before, after solver.Stats) {
		n++
		ref := solver.New(nil)
		want := ref.Check(pc.Constraints())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%d conjuncts): incremental %+v, from scratch %+v", n, pc.Len(), got, want)
		}
		if d := comparableDelta(before, after); d != comparableDelta(solver.Stats{}, ref.Stats) {
			t.Fatalf("query %d: incremental stats delta %+v, from scratch %+v", n, d, ref.Stats)
		}
	}
	t.Cleanup(func() { checkHook = nil })
	return func() int { return n }
}

// comparableDelta is after-before over the stats that reach reports.
func comparableDelta(before, after solver.Stats) solver.Stats {
	return solver.Stats{
		Queries:         after.Queries - before.Queries,
		QuickSAT:        after.QuickSAT - before.QuickSAT,
		QuickUNSAT:      after.QuickUNSAT - before.QuickUNSAT,
		FullQueries:     after.FullQueries - before.FullQueries,
		BitblastVars:    after.BitblastVars - before.BitblastVars,
		BitblastClauses: after.BitblastClauses - before.BitblastClauses,
	}
}

func buildModel(t testing.TB, name, source string, rs *rules.RuleSet) *model.Program {
	t.Helper()
	prog, err := p4.Parse(name, source)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := prog.Check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	m, err := translate.Translate(prog, translate.Options{Rules: rs})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m
}

// corpusRules parses p's default rules, or returns nil when it has none.
func corpusRules(t testing.TB, p *progs.Program) *rules.RuleSet {
	t.Helper()
	if p.Rules == "" {
		return nil
	}
	rs, err := rules.Parse(p.Rules)
	if err != nil {
		t.Fatalf("%s rules: %v", p.Name, err)
	}
	return rs
}

// crossCheckOptions are the executor modes whose queries differ: plain,
// Opt (model reuse skips solver calls, so later queries extend unchecked
// prefixes) and test collection (one more query per completed path).
var crossCheckOptions = []struct {
	name string
	opts Options
}{
	{"plain", Options{}},
	{"opt", Options{Opt: true}},
	{"tests", Options{CollectTests: true}},
	{"opt+tests", Options{Opt: true, CollectTests: true}},
}

// TestIncrementalQueriesMatchFromScratchCorpus re-asks every query of the
// corpus programs (plain and under O3, with their rules and constraints)
// from scratch.
func TestIncrementalQueriesMatchFromScratchCorpus(t *testing.T) {
	queries := crossCheck(t)
	for _, p := range progs.All() {
		rs := corpusRules(t, p)
		models := map[string]*model.Program{
			"source":      buildModel(t, p.Name, p.Source, rs),
			"constrained": buildModel(t, p.Name, p.ConstrainedSource(), rs),
		}
		models["O3"] = opt.Apply(models["source"], opt.O3())
		for mname, m := range models {
			for _, mode := range crossCheckOptions {
				if _, err := Execute(m, mode.opts); err != nil {
					t.Fatalf("%s/%s/%s: %v", p.Name, mname, mode.name, err)
				}
			}
		}
	}
	if queries() == 0 {
		t.Fatal("no solver query was cross-checked")
	}
}

// TestIncrementalQueriesMatchFromScratchRules covers the Fig. 9(c) shape:
// long runs of key != rule_i conjuncts with a key == rule_j that rebinds
// the guessed key at every table hit.
func TestIncrementalQueriesMatchFromScratchRules(t *testing.T) {
	queries := crossCheck(t)
	cfg := whippersnapper.Default(2)
	cfg.RulesPerTable = 20
	m := buildModel(t, "ws", whippersnapper.Generate(cfg), whippersnapper.GenerateRules(cfg))
	for _, mode := range crossCheckOptions {
		res, err := Execute(m, mode.opts)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if res.Metrics.Paths != cfg.PathCount() {
			t.Fatalf("%s: %d paths, want %d", mode.name, res.Metrics.Paths, cfg.PathCount())
		}
	}
	if queries() == 0 {
		t.Fatal("no solver query was cross-checked")
	}
}
