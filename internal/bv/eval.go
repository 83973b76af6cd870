package bv

// Eval computes the concrete value of e under the assignment env, with any
// unassigned variable reading as zero (matching how the SAT layer completes
// partial models). The result is masked to e.Width.
//
// Eval is the reference semantics: the simplifier, the bit-blaster and the
// concrete interpreter are all property-tested against it.
func Eval(e *Expr, env map[string]uint64) uint64 {
	w := walker{env: env, cache: make(map[*Expr]uint64)}
	return w.eval(e)
}

// Evaluator is Eval for callers that evaluate many small expressions in a
// row: it walks small expressions as trees, without a node cache, and
// reuses one cache across calls for the rest. The zero value is ready to
// use; it is not safe for concurrent use.
type Evaluator struct{ cache map[*Expr]uint64 }

// treeBudget bounds the nodes a cacheless walk may visit. DAG sharing can
// make a tree walk exponential, so a walk that exceeds it starts over
// with the cache.
const treeBudget = 64

// Eval computes the same value as the package-level Eval.
func (ev *Evaluator) Eval(e *Expr, env map[string]uint64) uint64 {
	w := walker{env: env, budget: treeBudget}
	if v := w.eval(e); w.budget >= 0 {
		return v
	}
	// Clearing costs the map's capacity, so a map that one large
	// expression grew is dropped rather than cleared.
	if ev.cache == nil || len(ev.cache) > 256 {
		ev.cache = make(map[*Expr]uint64)
	} else {
		clear(ev.cache)
	}
	w = walker{env: env, cache: ev.cache}
	return w.eval(e)
}

// walker evaluates one expression, memoizing nodes in cache or, when
// cache is nil, walking it as a tree until budget runs out.
type walker struct {
	env    map[string]uint64
	cache  map[*Expr]uint64
	budget int
}

func (w *walker) eval(e *Expr) uint64 {
	if w.cache != nil {
		if v, ok := w.cache[e]; ok {
			return v
		}
	} else if w.budget--; w.budget < 0 {
		return 0 // the caller discards this walk
	}
	v := w.raw(e) & Mask(e.Width)
	if w.cache != nil {
		w.cache[e] = v
	}
	return v
}

func (w *walker) raw(e *Expr) uint64 {
	arg := func(i int) uint64 { return w.eval(e.Args[i]) }
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch e.Op {
	case OpConst:
		return e.Val
	case OpVar:
		return w.env[e.Name] & Mask(e.Width)
	case OpNot:
		return ^arg(0)
	case OpAnd:
		return arg(0) & arg(1)
	case OpOr:
		return arg(0) | arg(1)
	case OpXor:
		return arg(0) ^ arg(1)
	case OpAdd:
		return arg(0) + arg(1)
	case OpSub:
		return arg(0) - arg(1)
	case OpMul:
		return arg(0) * arg(1)
	case OpUDiv:
		a, b := arg(0), arg(1)
		if b == 0 {
			return Mask(e.Width)
		}
		return a / b
	case OpUMod:
		a, b := arg(0), arg(1)
		if b == 0 {
			return a
		}
		return a % b
	case OpShl:
		a, b := arg(0), arg(1)
		if b >= uint64(e.Width) {
			return 0
		}
		return a << b
	case OpLshr:
		a, b := arg(0), arg(1)
		if b >= uint64(e.Args[0].Width) {
			return 0
		}
		return a >> b
	case OpEq:
		return b2u(arg(0) == arg(1))
	case OpUlt:
		return b2u(arg(0) < arg(1))
	case OpUle:
		return b2u(arg(0) <= arg(1))
	case OpIte:
		if arg(0) != 0 {
			return arg(1)
		}
		return arg(2)
	case OpConcat:
		return arg(0)<<uint(e.Args[1].Width) | arg(1)
	case OpExtract:
		return arg(0) >> uint(e.Lo)
	case OpZext:
		return arg(0)
	default:
		panic("bv: eval of unknown op " + e.Op.String())
	}
}
