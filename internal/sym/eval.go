package sym

import (
	"fmt"

	"p4assert/internal/bv"
	"p4assert/internal/model"
)

// eval lowers a model-IR expression to a bitvector value under the state's
// store. Width coercion rules:
//
//   - arithmetic/bitwise/shift: the right operand is resized to the left
//     operand's width, which is the result width;
//   - comparisons: both operands widen to the larger width (so an untyped
//     32-bit literal compared with an 8-bit field cannot be silently
//     truncated into a spurious equality); result width 1;
//   - logical operators and conditions: operands coerce to truth values
//     (non-zero test), per the assertion-language semantics.
func (ex *executor) eval(e model.Expr, st *state) (*bv.Expr, error) {
	c := ex.ctx
	switch x := e.(type) {
	case *model.Const:
		return c.Const(x.Width, x.Val), nil

	case *model.Ref:
		i, ok := ex.slots[x.Name]
		if !ok {
			return nil, fmt.Errorf("sym: read of unknown global %s", x.Name)
		}
		return st.store[i], nil

	case *model.Cast:
		v, err := ex.eval(x.X, st)
		if err != nil {
			return nil, err
		}
		return c.Resize(v, x.Width), nil

	case *model.Un:
		v, err := ex.eval(x.X, st)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case model.OpNot:
			return c.Not(c.NonZero(v)), nil
		case model.OpBitNot:
			return c.Not(v), nil
		case model.OpNeg:
			return c.Sub(c.Const(v.Width, 0), v), nil
		}
		return nil, fmt.Errorf("sym: bad unary op %v", x.Op)

	case *model.Cond:
		cond, err := ex.eval(x.C, st)
		if err != nil {
			return nil, err
		}
		tv, err := ex.eval(x.T, st)
		if err != nil {
			return nil, err
		}
		fv, err := ex.eval(x.F, st)
		if err != nil {
			return nil, err
		}
		w := tv.Width
		if fv.Width > w {
			w = fv.Width
		}
		return c.Ite(c.NonZero(cond), c.Resize(tv, w), c.Resize(fv, w)), nil

	case *model.Bin:
		a, err := ex.eval(x.X, st)
		if err != nil {
			return nil, err
		}
		b, err := ex.eval(x.Y, st)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case model.OpLAnd:
			return c.And(c.NonZero(a), c.NonZero(b)), nil
		case model.OpLOr:
			return c.Or(c.NonZero(a), c.NonZero(b)), nil
		case model.OpEq, model.OpNe, model.OpLt, model.OpLe, model.OpGt, model.OpGe:
			w := a.Width
			if b.Width > w {
				w = b.Width
			}
			a, b = c.Resize(a, w), c.Resize(b, w)
			switch x.Op {
			case model.OpEq:
				return c.Eq(a, b), nil
			case model.OpNe:
				return c.Ne(a, b), nil
			case model.OpLt:
				return c.Ult(a, b), nil
			case model.OpLe:
				return c.Ule(a, b), nil
			case model.OpGt:
				return c.Ugt(a, b), nil
			default:
				return c.Uge(a, b), nil
			}
		}
		b = c.Resize(b, a.Width)
		switch x.Op {
		case model.OpAdd:
			return c.Add(a, b), nil
		case model.OpSub:
			return c.Sub(a, b), nil
		case model.OpMul:
			return c.Mul(a, b), nil
		case model.OpDiv:
			return c.UDiv(a, b), nil
		case model.OpMod:
			return c.UMod(a, b), nil
		case model.OpAnd:
			return c.And(a, b), nil
		case model.OpOr:
			return c.Or(a, b), nil
		case model.OpXor:
			return c.Xor(a, b), nil
		case model.OpShl:
			return c.Shl(a, b), nil
		case model.OpShr:
			return c.Lshr(a, b), nil
		}
		return nil, fmt.Errorf("sym: bad binary op %v", x.Op)
	}
	return nil, fmt.Errorf("sym: unknown expression %T", e)
}
