package solver

// Incremental quick tiers along execution paths.
//
// The executor's path conditions grow one conjunct per fork, and fork
// siblings share everything but their last conjunct. Check re-derives the
// quick tiers (equality guess, all-zero witness, bounds probe) from the
// whole set on every query, which makes a path's queries cost the square
// of its depth. A Path instead carries what the quick tiers derived for
// its prefix, so extending it by one conjunct does only the new work:
//
//   - the guess bindings, the variable set and the probe's per-variable
//     facts are extended copy-on-write, sharing the parent's maps and
//     slices when the conjunct adds nothing;
//   - each assignment keeps a persistent list of the conjuncts it
//     falsifies. A conjunct that leaves the assignment alone is evaluated
//     on its own; one that rebinds variables re-evaluates only the prefix
//     conjuncts that mention them.
//
// This is model reuse in the spirit of KLEE's counterexample cache, kept
// below the solver boundary: every tier returns exactly the verdict,
// Quick flag, model and comparable stats Check would, so reports do not
// change. The executor-level Opt reuse (internal/sym) is untouched.

import (
	"time"

	"p4assert/internal/bv"
)

// Path is an immutable path condition: a conjunction grown one conjunct at
// a time. The nil *Path is the empty conjunction. Extending never copies,
// so handing a Path to a cloned state is O(1), and fork siblings share
// their parent as a common prefix.
//
// A Path also caches the quick-tier state of its prefix, filled in by the
// first CheckPath that needs it. Paths may be checked by different
// Checkers over time, but not concurrently.
type Path struct {
	parent *Path
	conj   *bv.Expr
	n      int        // conjuncts on the path, this one included
	st     *pathState // nil until derived
	// Set with st for a live conj: the variables it mentions and whether
	// the all-zero assignment satisfies it.
	vars   []string
	atZero bool
}

// Extend returns the path p ∧ e. p itself is unchanged.
func (p *Path) Extend(e *bv.Expr) *Path {
	return &Path{parent: p, conj: e, n: p.Len() + 1}
}

// Len returns the number of conjuncts on the path.
func (p *Path) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// Constraints returns the conjuncts in the order they were added.
func (p *Path) Constraints() []*bv.Expr {
	out := make([]*bv.Expr, p.Len())
	for q := p; q != nil; q = q.parent {
		out[q.n-1] = q.conj
	}
	return out
}

// Contains reports whether e is one of the path's conjuncts.
func (p *Path) Contains(e *bv.Expr) bool {
	for q := p; q != nil; q = q.parent {
		if q.conj == e {
			return true
		}
	}
	return false
}

// pathState is what the quick tiers know about a path's live conjuncts
// (those not constant true). States are immutable once built; a child
// whose conjunct changes nothing shares its parent's state.
type pathState struct {
	dead   bool     // a conjunct is constant false
	live   int      // live conjuncts
	vars   []string // variables the live conjuncts mention, each once
	zeroOK bool     // the all-zero assignment satisfies every live conjunct
	// guess holds the equality-guess bindings, nil once two conflict;
	// guessFail lists the live conjuncts it falsifies.
	guess     map[string]uint64
	guessFail *failList
	probe     *probeState // derived when a query first reaches the probe
}

// probeState is the bounds probe's view of a path.
type probeState struct {
	refuted bool // the facts leave some variable no value: UNSAT
	infos   map[string]*varInfo
	env     map[string]uint64 // proposed witness per variable with facts
	fail    *failList         // live conjuncts env falsifies
}

// failList is a persistent list of path nodes whose conjunct an
// assignment falsifies; children share their parent's list.
type failList struct {
	node *Path
	next *failList
}

var (
	rootState = &pathState{zeroOK: true, guess: map[string]uint64{}, probe: &probeState{}}
	deadState = &pathState{dead: true}
)

// CheckPath decides whether the conjunction p is satisfiable, returning
// exactly what Check(p.Constraints()) would — verdict, Quick flag, model
// and comparable stats — while doing only the quick-tier work p's last
// conjuncts added since an ancestor was last checked.
func (c *Checker) CheckPath(p *Path) Result {
	c.Stats.Queries++
	t0 := time.Now()
	defer func() { c.Stats.Accel.WallNS += time.Since(t0).Nanoseconds() }()

	s := c.state(p)
	switch {
	case s.dead:
		c.Stats.QuickUNSAT++
		return Result{Sat: false, Quick: true}
	case s.live == 0:
		return c.quickSAT(map[string]uint64{})
	case s.guess != nil && s.guessFail == nil:
		return c.quickSAT(s.model(s.guess))
	case s.zeroOK:
		return c.quickSAT(s.model(nil))
	}
	ps := c.probe(p)
	if ps.refuted {
		c.Stats.QuickUNSAT++
		return Result{Sat: false, Quick: true}
	}
	if ps.fail == nil {
		return c.quickSAT(s.model(ps.env))
	}
	live := make([]*bv.Expr, s.live)
	i := s.live
	for q := p; q != nil; q = q.parent {
		if !q.conj.IsTrue() {
			i--
			live[i] = q.conj
		}
	}
	return c.full(live)
}

// model completes env with explicit zeros for every variable the path
// mentions, as completeModel does for Check.
func (s *pathState) model(env map[string]uint64) map[string]uint64 {
	m := make(map[string]uint64, len(s.vars))
	for _, name := range s.vars {
		m[name] = env[name]
	}
	return m
}

// state returns p's quick-tier state, deriving it (and any underived
// ancestors') on first use.
func (c *Checker) state(p *Path) *pathState {
	if p == nil {
		return rootState
	}
	if p.st == nil {
		p.st = c.extend(p, c.state(p.parent))
	}
	return p.st
}

// extend derives p's state from its parent's state par.
func (c *Checker) extend(p *Path, par *pathState) *pathState {
	e := p.conj
	if par.dead || e.IsTrue() {
		return par
	}
	if e.IsFalse() {
		return deadState
	}
	p.vars = c.varsOf(e)
	p.atZero = c.holds(e, nil)
	s := &pathState{
		live:      par.live + 1,
		vars:      union(par.vars, p.vars),
		zeroOK:    par.zeroOK && p.atZero,
		guess:     par.guess,
		guessFail: par.guessFail,
	}
	if s.guess == nil {
		return s
	}
	c.bindings = guessBindings(e, c.bindings[:0])
	env, changed, ok := rebind(par.guess, c.bindings)
	if !ok {
		s.guess, s.guessFail = nil, nil
		return s
	}
	s.guess = env
	if len(changed) > 0 {
		s.guessFail = c.refail(p.parent, s.guessFail, env, changed)
	}
	if !c.holdsAt(p, env) {
		s.guessFail = &failList{node: p, next: s.guessFail}
	}
	return s
}

// rebind applies bindings to env as guessFromEqualities does, copying env
// on the first change. changed names the variables whose value (unbound
// reads as zero) differs afterwards; ok=false reports a conflict.
func rebind(env map[string]uint64, bs []binding) (out map[string]uint64, changed []string, ok bool) {
	out = env
	copied := false
	for _, b := range bs {
		old, seen := out[b.name]
		if seen && old == b.val {
			continue
		}
		if b.checked && seen {
			return nil, nil, false
		}
		if !copied {
			out, copied = cloneEnv(env, len(bs)), true
		}
		out[b.name] = b.val
		if old != b.val {
			changed = append(changed, b.name)
		}
	}
	return out, changed, true
}

// probe returns p's bounds-probe state, deriving it from the nearest
// ancestor that has one.
func (c *Checker) probe(p *Path) *probeState {
	s := c.state(p)
	if s.probe == nil {
		if p.conj.IsTrue() {
			return c.probe(p.parent) // p shares its parent's state
		}
		s.probe = c.extendProbe(p, c.probe(p.parent))
	}
	return s.probe
}

// extendProbe adds p's conjunct to the parent's probe state par.
func (c *Checker) extendProbe(p *Path, par *probeState) *probeState {
	if par.refuted {
		return par
	}
	e := p.conj
	var touched []*varInfo
	var names []string
	infos := par.infos
	get := func(v *bv.Expr) *varInfo {
		for i, name := range names {
			if name == v.Name {
				return touched[i]
			}
		}
		var in *varInfo
		if old, ok := par.infos[v.Name]; ok {
			in = old.clone()
		} else {
			in = newVarInfo(v.Width)
		}
		if len(names) == 0 {
			infos = make(map[string]*varInfo, len(par.infos)+1)
			for name, old := range par.infos {
				infos[name] = old
			}
		}
		infos[v.Name] = in
		names = append(names, v.Name)
		touched = append(touched, in)
		return in
	}
	if applyFacts(e, get) {
		return &probeState{refuted: true}
	}
	ps := &probeState{infos: infos, env: par.env, fail: par.fail}
	var changed []string
	copied := false
	for i, in := range touched {
		v, ok := in.witness()
		if !ok {
			return &probeState{refuted: true}
		}
		if old, seen := ps.env[names[i]]; seen && old == v {
			continue
		}
		if !copied {
			ps.env, copied = cloneEnv(par.env, len(touched)), true
		}
		if ps.env[names[i]] != v {
			changed = append(changed, names[i])
		}
		ps.env[names[i]] = v
	}
	if len(changed) > 0 {
		ps.fail = c.refail(p.parent, ps.fail, ps.env, changed)
	}
	if !c.holdsAt(p, ps.env) {
		ps.fail = &failList{node: p, next: ps.fail}
	} else if len(touched) == 0 {
		return par
	}
	return ps
}

// refail rebuilds a falsified-conjunct list after the assignment env
// changed the values of the changed variables: entries that do not
// mention them keep their verdict, and the prefix conjuncts (from upward)
// that do are evaluated again.
func (c *Checker) refail(from *Path, old *failList, env map[string]uint64, changed []string) *failList {
	var out *failList
	for f := old; f != nil; f = f.next {
		if !mentions(f.node.vars, changed) {
			out = &failList{node: f.node, next: out}
		}
	}
	for q := from; q != nil; q = q.parent {
		if mentions(q.vars, changed) && !c.holdsAt(q, env) {
			out = &failList{node: q, next: out}
		}
	}
	return out
}

// holds reports whether conjunct e evaluates to true under env.
func (c *Checker) holds(e *bv.Expr, env map[string]uint64) bool {
	return c.eval.Eval(e, env) == 1
}

// holdsAt reports whether p's live conjunct holds under env, reusing its
// all-zero verdict when env gives none of its variables a nonzero value.
func (c *Checker) holdsAt(p *Path, env map[string]uint64) bool {
	for _, name := range p.vars {
		if env[name] != 0 {
			return c.holds(p.conj, env)
		}
	}
	return p.atZero
}

// varsOf returns the variables e mentions, cached per node.
func (c *Checker) varsOf(e *bv.Expr) []string {
	vs, ok := c.varCache[e]
	if !ok {
		if c.varCache == nil {
			c.varCache = map[*bv.Expr][]string{}
		}
		vs = bv.Vars(e, nil)
		c.varCache[e] = vs
	}
	return vs
}

// union returns base extended by the names of add it lacks, sharing base
// when there are none.
func union(base, add []string) []string {
	out := base[:len(base):len(base)] // the first append copies
	for _, name := range add {
		if !contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

func mentions(vars, names []string) bool {
	for _, name := range names {
		if contains(vars, name) {
			return true
		}
	}
	return false
}

func contains(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

func cloneEnv(env map[string]uint64, extra int) map[string]uint64 {
	out := make(map[string]uint64, len(env)+extra)
	for k, v := range env {
		out[k] = v
	}
	return out
}
