// Package solver decides satisfiability of sets of bitvector constraints.
// It layers cheap decision procedures in front of full bit-blasting:
//
//  1. constant inspection — a constraint already folded to false is UNSAT,
//     and a set folded entirely to true is trivially SAT;
//  2. assignment guessing — path conditions of P4 models are dominated by
//     equalities between fields and constants, so a model assembled from
//     those equalities (all other variables zero) very often satisfies the
//     whole set and avoids the SAT solver entirely; the all-zero
//     assignment is tried next, and interval/exclusion probing proposes a
//     third witness or refutes sets whose per-variable facts conflict;
//  3. a normalized memo (memo.go) in front of the full tier only —
//     repeated query shapes, modulo variable naming and conjunct order,
//     replay their verdict, witness and stats without bit-blasting;
//  4. bit-blasting to CNF and CDCL search (internal/bitblast, internal/sat),
//     accelerated by incremental sessions and portfolio racing (accel.go).
//
// The executor asks along execution paths (CheckPath, path.go): each path
// condition extends its parent's by one conjunct, and the quick tiers
// (1–2) carry their bindings, facts and witnesses down the fork so a
// query does only the new conjunct's work. Check decides a plain
// constraint set from scratch and is the reference CheckPath must match.
//
// This mirrors the role of the solver stack under KLEE in the paper, where
// most path-feasibility queries are shallow and only assertion checks on
// arithmetic-heavy paths need real search. All layers return identical
// verdicts and witnesses (full-path models are canonically minimal, see
// accel.go), so acceleration never changes a report byte.
package solver

import (
	"time"

	"p4assert/internal/bv"
	"p4assert/internal/sat"
)

// Result reports the outcome of a satisfiability check.
type Result struct {
	Sat   bool
	Model map[string]uint64 // valid only when Sat; variables not mentioned are zero
	Quick bool              // answered without invoking the SAT solver
}

// Config controls the acceleration subsystem. The zero value enables
// everything; each layer can be disabled independently (portfolio racing
// additionally requires sessions, its session racer).
type Config struct {
	DisableSession   bool
	DisableMemo      bool
	DisablePortfolio bool
}

// Stats counts solver activity for the paper's instruction/
// query metrics.
type Stats struct {
	Queries     int64
	QuickSAT    int64
	QuickUNSAT  int64
	FullQueries int64
	// BitblastVars and BitblastClauses accumulate the CNF sizes of the
	// full (layer 3) queries: SAT variables allocated and problem clauses
	// emitted by bit-blasting the canonical conjuncts into an empty
	// solver, measured before search so the counts are a deterministic
	// function of the query formulas — identical whichever acceleration
	// mode actually answered.
	BitblastVars    int64
	BitblastClauses int64
	// Accel counts acceleration-subsystem activity. Unlike the counters
	// above it is not a deterministic function of (program, options) —
	// memo hits depend on cache state, portfolio winners and search
	// effort on goroutine timing — so it is excluded from report JSON
	// and surfaced through the non-comparable telemetry section instead.
	Accel AccelStats `json:"-"`
}

// AccelStats counts acceleration activity and raw SAT search effort.
type AccelStats struct {
	SessionReuseHits     int64 // conjunct circuits already live in the session
	SessionEmitted       int64 // conjunct circuits newly emitted into the session
	MemoHits             int64 // queries answered by the normalized memo
	MemoSharedHits       int64 // subset of MemoHits served by the run-wide tier
	PortfolioSessionWins int64 // full queries won by the incremental session
	PortfolioFreshWins   int64 // full queries won by the fresh-blast racer
	Decisions            int64
	Propagations         int64
	Conflicts            int64
	LearnedClauses       int64
	WallNS               int64 // wall time spent inside Check
}

// Add folds o into a, for aggregation across parallel submodel runs.
func (a *AccelStats) Add(o AccelStats) {
	a.SessionReuseHits += o.SessionReuseHits
	a.SessionEmitted += o.SessionEmitted
	a.MemoHits += o.MemoHits
	a.MemoSharedHits += o.MemoSharedHits
	a.PortfolioSessionWins += o.PortfolioSessionWins
	a.PortfolioFreshWins += o.PortfolioFreshWins
	a.Decisions += o.Decisions
	a.Propagations += o.Propagations
	a.Conflicts += o.Conflicts
	a.LearnedClauses += o.LearnedClauses
	a.WallNS += o.WallNS
}

// Checker decides constraint sets built in a single bv.Context. The zero
// value is ready to use with full acceleration. A Checker is not safe for
// concurrent use; parallel submodel executions each own one (optionally
// linked through a Shared memo, which is concurrency-safe).
type Checker struct {
	Ctx    *bv.Context
	Stats  Stats
	Cfg    Config
	Shared *Memo // optional run-wide memo tier behind the private one

	sess     *session
	local    *Memo
	encCache map[*bv.Expr]*localEnc

	// Quick-tier scratch for CheckPath (path.go).
	eval     bv.Evaluator
	varCache map[*bv.Expr][]string
	bindings []binding

	// Session solver counters at the last harvest, so per-query growth
	// can be folded into Stats.Accel.
	lastSessDecisions, lastSessPropagations int64
	lastSessConflicts, lastSessLearned      int64
}

// New returns a Checker for expressions created in ctx.
func New(ctx *bv.Context) *Checker { return &Checker{Ctx: ctx} }

// Check decides whether the conjunction of constraints is satisfiable.
// Every constraint must have width 1. Check evaluates every tier from
// scratch; CheckPath (path.go) answers the same question incrementally
// along an execution path and must agree with Check exactly.
func (c *Checker) Check(constraints []*bv.Expr) Result {
	c.Stats.Queries++
	t0 := time.Now()
	defer func() { c.Stats.Accel.WallNS += time.Since(t0).Nanoseconds() }()

	// Layer 1: constant inspection.
	live := constraints[:0:0]
	for _, e := range constraints {
		if e.IsFalse() {
			c.Stats.QuickUNSAT++
			return Result{Sat: false, Quick: true}
		}
		if !e.IsTrue() {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		c.Stats.QuickSAT++
		return Result{Sat: true, Model: map[string]uint64{}, Quick: true}
	}

	// Layer 2: guessed assignment from equality constraints.
	if env, ok := guessFromEqualities(live); ok && evalAll(live, env) {
		return c.quickSAT(completeModel(live, env))
	}
	// All-zeros is another very common witness (e.g. "no header valid").
	zero := map[string]uint64{}
	if evalAll(live, zero) {
		return c.quickSAT(completeModel(live, zero))
	}
	// Per-variable interval/exclusion probing: table-miss paths carry long
	// runs of key != rule_i constraints, for which a value outside the
	// exclusion set is an immediate witness — and whose facts, when they
	// contradict each other, refute the whole set without search.
	env, conflict := probeBounds(live)
	if conflict {
		c.Stats.QuickUNSAT++
		return Result{Sat: false, Quick: true}
	}
	if evalAll(live, env) {
		return c.quickSAT(completeModel(live, env))
	}
	return c.full(live)
}

func (c *Checker) quickSAT(model map[string]uint64) Result {
	c.Stats.QuickSAT++
	return Result{Sat: true, Model: model, Quick: true}
}

// full decides live (no constant conjuncts) with layer 3: full
// bit-blasting, accelerated (accel.go), behind the normalized memo.
func (c *Checker) full(live []*bv.Expr) Result {
	if c.encCache == nil {
		c.encCache = map[*bv.Expr]*localEnc{}
	}
	cq := canonicalize(live, c.encCache)
	if !c.Cfg.DisableMemo {
		if e := c.memoGet(cq.key); e != nil {
			return c.replay(cq, e)
		}
	}
	c.Stats.FullQueries++
	ans, vars, clauses := c.solveFull(cq)
	c.Stats.BitblastVars += vars
	c.Stats.BitblastClauses += clauses
	if ans.outcome != sat.Sat {
		c.memoPut(cq, &memoEntry{vars: vars, clauses: clauses})
		return Result{Sat: false}
	}
	c.memoPut(cq, &memoEntry{sat: true, model: canonValues(cq, ans.model), vars: vars, clauses: clauses})
	return Result{Sat: true, Model: ans.model}
}

// canonValues projects a model onto the canonical variable order.
func canonValues(cq *canonQuery, m map[string]uint64) []uint64 {
	vals := make([]uint64, len(cq.varOrder))
	for i, name := range cq.varOrder {
		vals[i] = m[name]
	}
	return vals
}

// replay reproduces a memoized full-tier outcome: the same Result the
// solve returned (model transferred through the variable bijection) and
// the same comparable stats delta.
func (c *Checker) replay(cq *canonQuery, e *memoEntry) Result {
	c.Stats.Accel.MemoHits++
	c.Stats.FullQueries++
	c.Stats.BitblastVars += e.vars
	c.Stats.BitblastClauses += e.clauses
	if !e.sat {
		return Result{Sat: false}
	}
	return Result{Sat: true, Model: namedModel(cq, e.model)}
}

func namedModel(cq *canonQuery, vals []uint64) map[string]uint64 {
	m := make(map[string]uint64, len(cq.varOrder))
	for i, name := range cq.varOrder {
		m[name] = vals[i]
	}
	return m
}

func (c *Checker) memoGet(key string) *memoEntry {
	if c.local == nil {
		c.local = NewMemo(localMemoCap)
	}
	if e := c.local.get(key); e != nil {
		return e
	}
	if c.Shared != nil {
		if e := c.Shared.get(key); e != nil {
			c.local.put(key, e)
			c.Stats.Accel.MemoSharedHits++
			return e
		}
	}
	return nil
}

func (c *Checker) memoPut(cq *canonQuery, e *memoEntry) {
	if c.Cfg.DisableMemo {
		return
	}
	c.local.put(cq.key, e)
	if c.Shared != nil {
		c.Shared.put(cq.key, e)
	}
}

// binding is one var := const fact the equality guess reads off a
// conjunct. A checked binding (from ==) conflicts with an earlier binding
// of the same variable to another value; a boolean literal overwrites.
type binding struct {
	name    string
	val     uint64
	checked bool
}

// guessBindings appends the bindings of conjunct e, walking its top-level
// conjunctions, in the order the guess applies them.
func guessBindings(e *bv.Expr, dst []binding) []binding {
	switch e.Op {
	case bv.OpAnd:
		if e.Width == 1 {
			dst = guessBindings(e.Args[0], dst)
			dst = guessBindings(e.Args[1], dst)
		}
	case bv.OpEq:
		a, b := e.Args[0], e.Args[1]
		if a.Op == bv.OpConst {
			a, b = b, a
		}
		if a.Op == bv.OpVar && b.Op == bv.OpConst {
			dst = append(dst, binding{name: a.Name, val: b.Val, checked: true})
		}
	case bv.OpVar:
		if e.Width == 1 {
			dst = append(dst, binding{name: e.Name, val: 1})
		}
	case bv.OpNot:
		if e.Args[0].Op == bv.OpVar && e.Width == 1 {
			dst = append(dst, binding{name: e.Args[0].Name, val: 0})
		}
	}
	return dst
}

// guessFromEqualities collects the var == const bindings of all
// constraints. Returns ok=false on a visible conflict between bindings,
// which is itself a strong UNSAT hint but not proof (so we fall through).
func guessFromEqualities(constraints []*bv.Expr) (map[string]uint64, bool) {
	env := map[string]uint64{}
	var bs []binding
	for _, e := range constraints {
		bs = guessBindings(e, bs[:0])
		for _, b := range bs {
			if old, seen := env[b.name]; b.checked && seen && old != b.val {
				return nil, false
			}
			env[b.name] = b.val
		}
	}
	return env, true
}

// varInfo accumulates per-variable facts from top-level conjuncts.
type varInfo struct {
	width    int
	lo, hi   uint64 // inclusive bounds
	eq       uint64
	hasEq    bool
	excluded map[uint64]bool // nil until the first exclusion
}

func newVarInfo(width int) *varInfo { return &varInfo{width: width, hi: bv.Mask(width)} }

func (in *varInfo) exclude(v uint64) {
	if in.excluded == nil {
		in.excluded = map[uint64]bool{}
	}
	in.excluded[v] = true
}

// clone returns a copy that can take further facts without changing in.
func (in *varInfo) clone() *varInfo {
	n := *in
	if in.excluded != nil {
		n.excluded = make(map[uint64]bool, len(in.excluded)+1)
		for v := range in.excluded {
			n.excluded[v] = true
		}
	}
	return &n
}

// witness proposes the smallest in-bounds, non-excluded value, or reports
// ok=false when the facts leave no value at all.
func (in *varInfo) witness() (v uint64, ok bool) {
	if in.hasEq {
		if in.eq < in.lo || in.eq > in.hi || in.excluded[in.eq] {
			return 0, false
		}
		return in.eq, true
	}
	if in.lo > in.hi {
		return 0, false
	}
	v = in.lo
	for in.excluded[v] && v < in.hi {
		v++
	}
	if in.excluded[v] {
		return 0, false // every value in [lo,hi] is excluded
	}
	// Clamp defensively: with the wrap guards in applyFacts v cannot leave
	// the domain, and this keeps any future fact source from proposing a
	// witness past Mask(width).
	return v & bv.Mask(in.width), true
}

// applyFacts adds the per-variable equalities, disequalities and unsigned
// bounds of conjunct e to the infos get returns (creating them on first
// use). It reports a conflict when a fact contradicts the domain or an
// earlier equality — every fact comes from a conjunct that must hold, so
// a per-variable contradiction is proof, not heuristic.
func applyFacts(e *bv.Expr, get func(v *bv.Expr) *varInfo) (conflict bool) {
	var visit func(e *bv.Expr, neg bool)
	visit = func(e *bv.Expr, neg bool) {
		switch e.Op {
		case bv.OpAnd:
			if e.Width == 1 && !neg {
				visit(e.Args[0], false)
				visit(e.Args[1], false)
			}
		case bv.OpNot:
			visit(e.Args[0], !neg)
		case bv.OpEq:
			a, b := e.Args[0], e.Args[1]
			if a.Op == bv.OpConst {
				a, b = b, a
			}
			if a.Op != bv.OpVar || b.Op != bv.OpConst {
				return
			}
			in := get(a)
			if neg {
				in.exclude(b.Val)
			} else {
				if in.hasEq && in.eq != b.Val {
					conflict = true
				}
				in.hasEq, in.eq = true, b.Val
			}
		case bv.OpUlt, bv.OpUle:
			a, b := e.Args[0], e.Args[1]
			strict := e.Op == bv.OpUlt
			switch {
			case a.Op == bv.OpVar && b.Op == bv.OpConst:
				in := get(a)
				if !neg { // a < c  or a <= c
					hi := b.Val
					if strict {
						if hi == 0 {
							conflict = true // a < 0: empty domain
							return
						}
						hi--
					}
					if hi < in.hi {
						in.hi = hi
					}
				} else { // !(a < c) => a >= c ; !(a <= c) => a > c
					lo := b.Val
					if !strict {
						if lo == bv.Mask(in.width) {
							conflict = true // a > max: lo+1 would wrap past the domain
							return
						}
						lo++
					}
					if lo > in.lo {
						in.lo = lo
					}
				}
			case a.Op == bv.OpConst && b.Op == bv.OpVar:
				in := get(b)
				if !neg { // c < b  or c <= b
					lo := a.Val
					if strict {
						if lo == bv.Mask(in.width) {
							conflict = true // max < b: lo+1 would wrap past the domain
							return
						}
						lo++
					}
					if lo > in.lo {
						in.lo = lo
					}
				} else { // !(c < b) => b <= c ; !(c <= b) => b < c
					hi := a.Val
					if strict {
						if hi == 0 {
							conflict = true // b < 0: empty domain
							return
						}
						hi--
					}
					if hi < in.hi {
						in.hi = hi
					}
				}
			}
		case bv.OpVar:
			if e.Width == 1 {
				in := get(e)
				v := uint64(1)
				if neg {
					v = 0
				}
				if in.hasEq && in.eq != v {
					conflict = true
				}
				in.hasEq, in.eq = true, v
			}
		}
	}
	visit(e, false)
	return conflict
}

// probeBounds collects the per-variable facts of all constraints. When
// they contradict each other the set is UNSAT without search
// (conflict=true). Otherwise it proposes a witness value for each
// variable with facts; the caller re-checks the proposal against every
// constraint, so the witness side stays a pure guesser.
func probeBounds(constraints []*bv.Expr) (env map[string]uint64, conflict bool) {
	infos := map[string]*varInfo{}
	get := func(v *bv.Expr) *varInfo {
		in, ok := infos[v.Name]
		if !ok {
			in = newVarInfo(v.Width)
			infos[v.Name] = in
		}
		return in
	}
	for _, e := range constraints {
		if applyFacts(e, get) {
			return nil, true
		}
	}
	env = map[string]uint64{}
	for name, in := range infos {
		v, ok := in.witness()
		if !ok {
			return nil, true
		}
		env[name] = v
	}
	return env, false
}

// completeModel extends a witness with explicit zero entries for every
// variable the constraints mention, so counterexamples always show the full
// relevant input assignment.
func completeModel(constraints []*bv.Expr, env map[string]uint64) map[string]uint64 {
	for _, e := range constraints {
		for _, name := range bv.Vars(e, nil) {
			if _, ok := env[name]; !ok {
				env[name] = 0
			}
		}
	}
	return env
}

func evalAll(constraints []*bv.Expr, env map[string]uint64) bool {
	for _, e := range constraints {
		if bv.Eval(e, env) != 1 {
			return false
		}
	}
	return true
}
