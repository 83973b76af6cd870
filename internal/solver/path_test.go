package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"p4assert/internal/bv"
)

// pathCoverage counts the situations the fork-tree property test must
// reach, so a generator change cannot silently stop exercising one.
type pathCoverage struct {
	probes, unchecked, dead, guessConflict, rebind, probeSAT, probeUNSAT, full int
}

// treeWalk grows one random fork tree, checking every asked node through
// the incremental Checker and through a fresh from-scratch Check.
type treeWalk struct {
	t   *testing.T
	r   *rand.Rand
	ctx *bv.Context
	inc *Checker
	cov *pathCoverage
}

// conjunct draws a constraint over three 4-bit variables and two flags:
// equalities, exclusions and bounds for the guess and the probe,
// arithmetic for the full tier, boolean literals that rebind silently,
// and the occasional constant.
func (w *treeWalk) conjunct() *bv.Expr {
	f := func() *bv.Expr { return w.ctx.Var([]string{"f", "g"}[w.r.Intn(2)], 1) }
	switch k := w.r.Intn(20); {
	case k < 12:
		return randomConstraint(w.ctx, w.r, []string{"a", "b", "c"})
	case k < 15:
		if w.r.Intn(2) == 0 {
			return f()
		}
		return w.ctx.Not(f())
	case k < 18:
		return w.ctx.And(w.ctx.Eq(w.ctx.Var("a", 4), w.ctx.Const(4, uint64(w.r.Intn(4)))), f())
	case k == 18:
		return w.ctx.True()
	default:
		return w.ctx.False()
	}
}

// grow adds 1–2 children to p, each either asked and (if SAT) grown
// further, asked as an uncommitted assertion probe, or pushed unchecked
// as the executor's Opt mode does when its cached model already fits.
func (w *treeWalk) grow(p *Path, depth int) {
	if depth == 7 {
		return
	}
	for k := 1 + w.r.Intn(2); k > 0; k-- {
		child := p.Extend(w.conjunct())
		switch w.r.Intn(6) {
		case 0:
			w.cov.probes++
			w.compare(child)
		case 1:
			w.cov.unchecked++
			w.grow(child, depth+1)
		default:
			if w.compare(child).Sat {
				w.grow(child, depth+1)
			}
		}
	}
}

func (w *treeWalk) compare(p *Path) Result {
	w.t.Helper()
	rebinds := w.rebinds(p)
	before := w.inc.Stats
	got := w.inc.CheckPath(p)
	ref := New(w.ctx)
	want := ref.Check(p.Constraints())
	if !reflect.DeepEqual(got, want) {
		w.t.Fatalf("CheckPath %+v, Check %+v on %s", got, want, dumpQuery(p.Constraints()))
	}
	if d, r := statsDelta(before, w.inc.Stats), statsDelta(Stats{}, ref.Stats); d != r {
		w.t.Fatalf("CheckPath stats %+v, Check stats %+v on %s", d, r, dumpQuery(p.Constraints()))
	}
	s := w.inc.state(p)
	switch {
	case s.dead:
		w.cov.dead++
	case !got.Quick:
		w.cov.full++
	case !got.Sat:
		w.cov.probeUNSAT++
	case s.guess == nil || s.guessFail != nil:
		if !s.zeroOK {
			w.cov.probeSAT++
		}
	}
	if s.guess == nil && !s.dead {
		w.cov.guessConflict++
	}
	if rebinds {
		w.cov.rebind++
	}
	return got
}

// rebinds reports whether p's conjunct binds, through the guess, a
// variable its prefix already mentions to a value it did not have there.
func (w *treeWalk) rebinds(p *Path) bool {
	par := w.inc.state(p.parent)
	if par.dead || par.guess == nil {
		return false
	}
	for _, b := range guessBindings(p.conj, nil) {
		if contains(par.vars, b.name) && par.guess[b.name] != b.val {
			return true
		}
	}
	return false
}

// statsDelta is after-before over the comparable counters.
func statsDelta(before, after Stats) Stats {
	return Stats{
		Queries:         after.Queries - before.Queries,
		QuickSAT:        after.QuickSAT - before.QuickSAT,
		QuickUNSAT:      after.QuickUNSAT - before.QuickUNSAT,
		FullQueries:     after.FullQueries - before.FullQueries,
		BitblastVars:    after.BitblastVars - before.BitblastVars,
		BitblastClauses: after.BitblastClauses - before.BitblastClauses,
	}
}

// TestCheckPathMatchesCheckProperty drives random fork trees through one
// incremental Checker per tree and asks every node again with a fresh
// from-scratch Check: verdict, Quick flag, model and comparable stats must
// be equal at every node, in the default and the compatibility mode.
func TestCheckPathMatchesCheckProperty(t *testing.T) {
	var cov pathCoverage
	modes := []Config{{}, {DisableSession: true, DisableMemo: true, DisablePortfolio: true}}
	for iter := 0; iter < 400; iter++ {
		for _, mode := range modes {
			ctx := bv.NewContext()
			inc := New(ctx)
			inc.Cfg = mode
			w := &treeWalk{t: t, r: rand.New(rand.NewSource(int64(iter))), ctx: ctx, inc: inc, cov: &cov}
			w.grow(nil, 0)
		}
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"assertion probes": cov.probes, "unchecked pushes": cov.unchecked,
		"dead paths": cov.dead, "guess conflicts": cov.guessConflict,
		"prefix rebinds": cov.rebind, "probe SAT": cov.probeSAT,
		"probe UNSAT": cov.probeUNSAT, "full tier": cov.full,
	} {
		if n == 0 {
			t.Errorf("the random trees never reached %s", name)
		}
	}
}

// TestPathSharesPrefix pins the sharing contract: siblings see their own
// last conjunct only, and the parent is unchanged by either.
func TestPathSharesPrefix(t *testing.T) {
	ctx := bv.NewContext()
	x := ctx.Var("x", 8)
	var root *Path
	parent := root.Extend(ctx.Ult(x, ctx.Const(8, 10)))
	hit := parent.Extend(ctx.Eq(x, ctx.Const(8, 7)))
	miss := parent.Extend(ctx.Ne(x, ctx.Const(8, 7)))
	c := New(ctx)
	for _, tc := range []struct {
		p    *Path
		want uint64
	}{{hit, 7}, {miss, 0}, {parent, 0}} {
		res := c.CheckPath(tc.p)
		if !res.Sat || res.Model["x"] != tc.want {
			t.Fatalf("%s: got %+v, want x=%d", fmt.Sprint(tc.p.Constraints()), res, tc.want)
		}
	}
	if root.Len() != 0 || parent.Len() != 1 || hit.Len() != 2 || !hit.Contains(parent.conj) {
		t.Fatal("path lengths or membership wrong")
	}
}
