// Package interp is a concrete interpreter for verification models: it runs
// one packet, with concrete values for every symbolic input, through the
// model and reports the final state. It is an independent implementation of
// the IR semantics (deliberately sharing no evaluation code with the
// symbolic executor) used for differential validation of translated models,
// the role BMv2 input-output testing plays in the paper's §6
// "Validation of C models".
package interp

import (
	"fmt"
	"sort"
	"strings"

	"p4assert/internal/model"
)

// Options configures a concrete run.
type Options struct {
	// Input supplies concrete values for symbolic variables: initial
	// symbolic globals are queried by name, MakeSymbolic targets by hint.
	// Nil inputs read as zero.
	Input func(name string, width int) uint64
	// Choose picks a branch for Fork statements (tables with unknown
	// rules). Nil always picks branch 0.
	Choose func(selector string, labels []string) int
	// Note observes TraceNote statements (submodels record the replaced
	// split decision this way); nil ignores them.
	Note func(label string)
	// MaxCallDepth bounds recursion as in the symbolic executor
	// (0 = default 8).
	MaxCallDepth int
}

// Result is the outcome of a concrete run.
type Result struct {
	// Program is the model that was run (for outcome extraction).
	Program *model.Program
	// Store holds the final value of every global.
	Store map[string]uint64
	// Failures lists assertion IDs whose checks evaluated false.
	Failures []int
	// AssumeViolated reports that an Assume evaluated false: the chosen
	// input is outside the constrained space and the run stopped there.
	AssumeViolated bool
	// Halted reports parser rejection or a loop-bound cut.
	Halted bool
	// Instructions counts executed statements.
	Instructions int64
}

type interp struct {
	p      *model.Program
	opts   Options
	res    *Result
	symCnt map[string]int
}

type frame struct {
	fn      string
	body    []model.Stmt
	ip      int
	isBlock bool
}

// Run executes the model concretely.
func Run(p *model.Program, opts Options) (*Result, error) {
	if opts.MaxCallDepth == 0 {
		opts.MaxCallDepth = 8
	}
	in := &interp{p: p, opts: opts, res: &Result{Program: p, Store: map[string]uint64{}}}
	for _, g := range p.Globals {
		if g.Symbolic {
			in.res.Store[g.Name] = in.input(g.Name, g.Width)
		} else {
			in.res.Store[g.Name] = g.Init & mask(g.Width)
		}
	}

	var frames []frame
	depth := map[string]int{}
	halted := false
	for entryIdx := 0; entryIdx < len(p.Entry); entryIdx++ {
		name := p.Entry[entryIdx]
		if halted && name != "$checks" {
			continue
		}
		fn, ok := p.Funcs[name]
		if !ok {
			return nil, fmt.Errorf("interp: entry %s not found", name)
		}
		depth[name]++
		frames = append(frames[:0], frame{fn: name, body: fn.Body})
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			if fr.ip >= len(fr.body) {
				if !fr.isBlock {
					depth[fr.fn]--
				}
				frames = frames[:len(frames)-1]
				continue
			}
			stmt := fr.body[fr.ip]
			fr.ip++
			in.res.Instructions++

			switch s := stmt.(type) {
			case *model.Assign:
				g, ok := p.Global(s.LHS)
				if !ok {
					return nil, fmt.Errorf("interp: unknown global %s", s.LHS)
				}
				v, err := in.eval(s.RHS)
				if err != nil {
					return nil, err
				}
				in.res.Store[s.LHS] = v & mask(g.Width)

			case *model.MakeSymbolic:
				g, ok := p.Global(s.Var)
				if !ok {
					return nil, fmt.Errorf("interp: unknown global %s", s.Var)
				}
				// Mirror the symbolic executor's per-path, per-hint input
				// naming (hint#k for the k-th draw of that hint) so
				// counterexample models replay directly.
				if in.symCnt == nil {
					in.symCnt = map[string]int{}
				}
				in.symCnt[s.Hint]++
				in.res.Store[s.Var] = in.input(fmt.Sprintf("%s#%d", s.Hint, in.symCnt[s.Hint]), g.Width)

			case *model.If:
				v, err := in.eval(s.Cond)
				if err != nil {
					return nil, err
				}
				if v != 0 {
					if len(s.Then) > 0 {
						frames = append(frames, frame{fn: fr.fn, body: s.Then, isBlock: true})
					}
				} else if len(s.Else) > 0 {
					frames = append(frames, frame{fn: fr.fn, body: s.Else, isBlock: true})
				}

			case *model.Fork:
				i := 0
				if in.opts.Choose != nil {
					i = in.opts.Choose(s.Selector, s.Labels)
				}
				if i < 0 || i >= len(s.Branches) {
					return nil, fmt.Errorf("interp: fork choice %d out of range", i)
				}
				if len(s.Branches[i]) > 0 {
					frames = append(frames, frame{fn: fr.fn, body: s.Branches[i], isBlock: true})
				}

			case *model.Call:
				fnDecl, ok := p.Funcs[s.Func]
				if !ok {
					return nil, fmt.Errorf("interp: unknown function %s", s.Func)
				}
				if depth[s.Func] >= in.opts.MaxCallDepth {
					// Truncated execution: stop entirely without running
					// the final checks, mirroring the symbolic executor.
					in.res.Halted = true
					return in.res, nil
				}
				depth[s.Func]++
				frames = append(frames, frame{fn: s.Func, body: fnDecl.Body})

			case *model.Assume:
				v, err := in.eval(s.Cond)
				if err != nil {
					return nil, err
				}
				if v == 0 {
					in.res.AssumeViolated = true
					return in.res, nil
				}

			case *model.AssertCheck:
				v, err := in.eval(s.Cond)
				if err != nil {
					return nil, err
				}
				if v == 0 {
					in.res.Failures = append(in.res.Failures, s.ID)
				}

			case *model.Return:
				for len(frames) > 0 {
					top := frames[len(frames)-1]
					frames = frames[:len(frames)-1]
					if !top.isBlock {
						depth[top.fn]--
						break
					}
				}

			case *model.Exit:
				frames = frames[:0]
				depth = map[string]int{}

			case *model.Halt:
				frames = frames[:0]
				depth = map[string]int{}
				halted = true
				in.res.Halted = true

			case *model.TraceNote:
				if in.opts.Note != nil {
					in.opts.Note(s.Label)
				}

			case *model.ResetDraws:
				// Restart per-hint input numbering: the next draw of hint h
				// reads h#1 again, mirroring the symbolic executor's aliasing
				// of re-drawn inputs in composed differential models.
				in.symCnt = nil

			default:
				return nil, fmt.Errorf("interp: unknown statement %T", stmt)
			}
		}
	}
	return in.res, nil
}

// Outcome is the externally observable result of a concrete run, in the
// same canonical shape the symbolic engine predicts for a path
// (sym.PathOutcome). The two types are deliberately independent — the
// differential oracle compares their digests, not shared code.
type Outcome struct {
	Halted   bool
	Forward  uint64
	Egress   uint64
	Failures []int
}

// Digest renders the outcome canonically. The format matches
// sym.PathOutcome.Digest byte for byte.
func (o Outcome) Digest() string {
	return fmt.Sprintf("halt=%t fwd=0x%x egress=0x%x fail=%v",
		o.Halted, o.Forward, o.Egress, o.Failures)
}

// Outcome summarizes the run: the final forward flag, the egress-port
// global (first global named *.egress_spec, as the translator emits), the
// halt status, and the sorted, deduplicated assertion failures.
func (r *Result) Outcome() Outcome {
	o := Outcome{Halted: r.Halted, Forward: r.Store[model.ForwardFlag]}
	for _, g := range r.Program.Globals {
		if strings.HasSuffix(g.Name, ".egress_spec") {
			o.Egress = r.Store[g.Name]
			break
		}
	}
	ids := append([]int(nil), r.Failures...)
	sort.Ints(ids)
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue
		}
		o.Failures = append(o.Failures, id)
	}
	return o
}

func (in *interp) input(name string, width int) uint64 {
	if in.opts.Input == nil {
		return 0
	}
	return in.opts.Input(name, width) & mask(width)
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// eval computes an expression concretely, with the same width-coercion
// rules the symbolic evaluator documents: right operand resized to the
// left's width for arithmetic, max-widening for comparisons, truth-value
// coercion for logical operators. It returns the value and tracks widths
// internally.
func (in *interp) eval(e model.Expr) (uint64, error) {
	v, _, err := in.evalW(e)
	return v, err
}

func (in *interp) evalW(e model.Expr) (uint64, int, error) {
	switch x := e.(type) {
	case *model.Const:
		return x.Val & mask(x.Width), x.Width, nil
	case *model.Ref:
		g, ok := in.p.Global(x.Name)
		if !ok {
			return 0, 0, fmt.Errorf("interp: unknown global %s", x.Name)
		}
		return in.res.Store[x.Name] & mask(g.Width), g.Width, nil
	case *model.Cast:
		v, _, err := in.evalW(x.X)
		if err != nil {
			return 0, 0, err
		}
		return v & mask(x.Width), x.Width, nil
	case *model.Un:
		v, w, err := in.evalW(x.X)
		if err != nil {
			return 0, 0, err
		}
		switch x.Op {
		case model.OpNot:
			if v == 0 {
				return 1, 1, nil
			}
			return 0, 1, nil
		case model.OpBitNot:
			return ^v & mask(w), w, nil
		case model.OpNeg:
			return (-v) & mask(w), w, nil
		}
		return 0, 0, fmt.Errorf("interp: bad unary %v", x.Op)
	case *model.Cond:
		c, _, err := in.evalW(x.C)
		if err != nil {
			return 0, 0, err
		}
		tv, tw, err := in.evalW(x.T)
		if err != nil {
			return 0, 0, err
		}
		fv, fw, err := in.evalW(x.F)
		if err != nil {
			return 0, 0, err
		}
		w := tw
		if fw > w {
			w = fw
		}
		if c != 0 {
			return tv & mask(w), w, nil
		}
		return fv & mask(w), w, nil
	case *model.Bin:
		a, aw, err := in.evalW(x.X)
		if err != nil {
			return 0, 0, err
		}
		b, bw, err := in.evalW(x.Y)
		if err != nil {
			return 0, 0, err
		}
		b2u := func(v bool) (uint64, int, error) {
			if v {
				return 1, 1, nil
			}
			return 0, 1, nil
		}
		switch x.Op {
		case model.OpLAnd:
			return b2u(a != 0 && b != 0)
		case model.OpLOr:
			return b2u(a != 0 || b != 0)
		case model.OpEq, model.OpNe, model.OpLt, model.OpLe, model.OpGt, model.OpGe:
			w := aw
			if bw > w {
				w = bw
			}
			av, bv := a&mask(w), b&mask(w)
			switch x.Op {
			case model.OpEq:
				return b2u(av == bv)
			case model.OpNe:
				return b2u(av != bv)
			case model.OpLt:
				return b2u(av < bv)
			case model.OpLe:
				return b2u(av <= bv)
			case model.OpGt:
				return b2u(av > bv)
			default:
				return b2u(av >= bv)
			}
		}
		w := aw
		av := a & mask(w)
		bv := b & mask(w)
		var v uint64
		switch x.Op {
		case model.OpAdd:
			v = av + bv
		case model.OpSub:
			v = av - bv
		case model.OpMul:
			v = av * bv
		case model.OpDiv:
			if bv == 0 {
				v = mask(w)
			} else {
				v = av / bv
			}
		case model.OpMod:
			if bv == 0 {
				v = av
			} else {
				v = av % bv
			}
		case model.OpAnd:
			v = av & bv
		case model.OpOr:
			v = av | bv
		case model.OpXor:
			v = av ^ bv
		case model.OpShl:
			if bv >= uint64(w) {
				v = 0
			} else {
				v = av << bv
			}
		case model.OpShr:
			if bv >= uint64(w) {
				v = 0
			} else {
				v = av >> bv
			}
		default:
			return 0, 0, fmt.Errorf("interp: bad binary %v", x.Op)
		}
		return v & mask(w), w, nil
	}
	return 0, 0, fmt.Errorf("interp: unknown expression %T", e)
}
