package interp

import (
	"strings"
	"testing"

	"p4assert/internal/model"
)

func simpleModel() *model.Program {
	p := model.NewProgram()
	p.AddGlobal("in", 8, true, 0)
	p.AddGlobal("out", 8, false, 0)
	p.AddGlobal(model.ForwardFlag, 1, false, 1)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.If{
			Cond: &model.Bin{Op: model.OpLt, X: &model.Ref{Name: "in"}, Y: &model.Const{Width: 8, Val: 10}},
			Then: []model.Stmt{&model.Assign{LHS: "out", RHS: &model.Const{Width: 8, Val: 1}}},
			Else: []model.Stmt{&model.Assign{LHS: "out", RHS: &model.Const{Width: 8, Val: 2}}},
		},
	}})
	p.Entry = []string{"main"}
	return p
}

func TestBranching(t *testing.T) {
	for _, tc := range []struct {
		in, out uint64
	}{{5, 1}, {10, 2}, {255, 2}, {9, 1}} {
		res, err := Run(simpleModel(), Options{Input: func(name string, w int) uint64 {
			return tc.in
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Store["out"] != tc.out {
			t.Fatalf("in=%d: out=%d, want %d", tc.in, res.Store["out"], tc.out)
		}
	}
}

func TestNilInputReadsZero(t *testing.T) {
	res, err := Run(simpleModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store["out"] != 1 { // in=0 < 10
		t.Fatalf("out = %d", res.Store["out"])
	}
	if res.Instructions == 0 {
		t.Fatal("instructions not counted")
	}
}

func TestMakeSymbolicNaming(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("v", 8, false, 0)
	p.AddGlobal("w", 8, false, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.MakeSymbolic{Var: "v", Hint: "v"},
		&model.MakeSymbolic{Var: "w", Hint: "w"},
	}})
	p.Entry = []string{"main"}
	var asked []string
	_, err := Run(p, Options{Input: func(name string, w int) uint64 {
		asked = append(asked, name)
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 2 || asked[0] != "v#1" || asked[1] != "w#1" {
		t.Fatalf("input naming = %v, want [v#1 w#1]", asked)
	}
}

func TestAssumeStops(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("x", 8, true, 0)
	p.AddGlobal("y", 8, false, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.Assume{Cond: &model.Bin{Op: model.OpEq, X: &model.Ref{Name: "x"}, Y: &model.Const{Width: 8, Val: 1}}},
		&model.Assign{LHS: "y", RHS: &model.Const{Width: 8, Val: 7}},
	}})
	p.Entry = []string{"main"}
	res, err := Run(p, Options{}) // x = 0 violates the assumption
	if err != nil {
		t.Fatal(err)
	}
	if !res.AssumeViolated || res.Store["y"] != 0 {
		t.Fatalf("assume should stop the run: %+v", res)
	}
}

func TestAssertFailureRecorded(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("x", 8, true, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.AssertCheck{ID: 3, Cond: &model.Bin{Op: model.OpEq,
			X: &model.Ref{Name: "x"}, Y: &model.Const{Width: 8, Val: 1}}},
		&model.AssertCheck{ID: 4, Cond: &model.Const{Width: 1, Val: 1}},
	}})
	p.Entry = []string{"main"}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0] != 3 {
		t.Fatalf("failures = %v, want [3]", res.Failures)
	}
}

func TestForkChoice(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("r", 8, false, 0)
	fork := &model.Fork{Selector: "s", Labels: []string{"a", "b"}}
	fork.Branches = [][]model.Stmt{
		{&model.Assign{LHS: "r", RHS: &model.Const{Width: 8, Val: 1}}},
		{&model.Assign{LHS: "r", RHS: &model.Const{Width: 8, Val: 2}}},
	}
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{fork}})
	p.Entry = []string{"main"}

	res, err := Run(p, Options{Choose: func(sel string, labels []string) int {
		if sel != "s" || len(labels) != 2 {
			t.Fatalf("choose called with %q %v", sel, labels)
		}
		return 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store["r"] != 2 {
		t.Fatalf("r = %d, want 2", res.Store["r"])
	}
	// Out-of-range choice errors.
	if _, err := Run(p, Options{Choose: func(string, []string) int { return 5 }}); err == nil {
		t.Fatal("bad choice should error")
	}
}

func TestHaltSkipsPipelineRunsChecks(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("a", 8, false, 0)
	p.AddFunc(&model.Func{Name: "parser", Body: []model.Stmt{&model.Halt{}}})
	p.AddFunc(&model.Func{Name: "ingress", Body: []model.Stmt{
		&model.Assign{LHS: "a", RHS: &model.Const{Width: 8, Val: 1}},
	}})
	p.AddFunc(&model.Func{Name: "$checks", Body: []model.Stmt{
		&model.AssertCheck{ID: 0, Cond: &model.Bin{Op: model.OpEq,
			X: &model.Ref{Name: "a"}, Y: &model.Const{Width: 8, Val: 0}}},
	}})
	p.Entry = []string{"parser", "ingress", "$checks"}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Failures) != 0 {
		t.Fatalf("halt semantics wrong: %+v", res)
	}
}

func TestLoopBoundStops(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("n", 8, false, 0)
	p.AddFunc(&model.Func{Name: "loop", Body: []model.Stmt{
		&model.Assign{LHS: "n", RHS: &model.Bin{Op: model.OpAdd,
			X: &model.Ref{Name: "n"}, Y: &model.Const{Width: 8, Val: 1}}},
		&model.Call{Func: "loop"},
	}})
	p.Entry = []string{"loop"}
	res, err := Run(p, Options{MaxCallDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The entry activation itself is depth-counted (matching the
	// symbolic executor), so MaxCallDepth=3 admits 3 body executions.
	if !res.Halted || res.Store["n"] != 3 {
		t.Fatalf("bound handling wrong: halted=%v n=%d", res.Halted, res.Store["n"])
	}
}

func TestWidthCoercions(t *testing.T) {
	// 32-bit literal compared against an 8-bit field must widen, not
	// truncate: 0x100 != 0 at width 8 would wrongly hold if truncated.
	p := model.NewProgram()
	p.AddGlobal("f", 8, false, 0)
	p.AddGlobal("r", 1, false, 0)
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.Assign{LHS: "r", RHS: &model.Bin{Op: model.OpEq,
			X: &model.Ref{Name: "f"}, Y: &model.Const{Width: 32, Val: 0x100}}},
	}})
	p.Entry = []string{"main"}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store["r"] != 0 {
		t.Fatal("comparison truncated the wide literal")
	}
}

// TestEvalOperatorMatrix exercises every IR operator through concrete
// evaluation, cross-checking against direct Go arithmetic at width 8.
func TestEvalOperatorMatrix(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("a", 8, true, 0)
	p.AddGlobal("b", 8, true, 0)
	p.AddGlobal("r", 8, false, 0)

	mk := func(op model.Op) model.Expr {
		return &model.Bin{Op: op, X: &model.Ref{Name: "a"}, Y: &model.Ref{Name: "b"}}
	}
	b2u := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	cases := []struct {
		name string
		expr model.Expr
		want func(a, b uint64) uint64
	}{
		{"add", mk(model.OpAdd), func(a, b uint64) uint64 { return (a + b) & 0xff }},
		{"sub", mk(model.OpSub), func(a, b uint64) uint64 { return (a - b) & 0xff }},
		{"mul", mk(model.OpMul), func(a, b uint64) uint64 { return (a * b) & 0xff }},
		{"div", mk(model.OpDiv), func(a, b uint64) uint64 {
			if b == 0 {
				return 0xff
			}
			return a / b
		}},
		{"mod", mk(model.OpMod), func(a, b uint64) uint64 {
			if b == 0 {
				return a
			}
			return a % b
		}},
		{"and", mk(model.OpAnd), func(a, b uint64) uint64 { return a & b }},
		{"or", mk(model.OpOr), func(a, b uint64) uint64 { return a | b }},
		{"xor", mk(model.OpXor), func(a, b uint64) uint64 { return a ^ b }},
		{"shl", mk(model.OpShl), func(a, b uint64) uint64 {
			if b >= 8 {
				return 0
			}
			return (a << b) & 0xff
		}},
		{"shr", mk(model.OpShr), func(a, b uint64) uint64 {
			if b >= 8 {
				return 0
			}
			return a >> b
		}},
		{"eq", mk(model.OpEq), func(a, b uint64) uint64 { return b2u(a == b) }},
		{"ne", mk(model.OpNe), func(a, b uint64) uint64 { return b2u(a != b) }},
		{"lt", mk(model.OpLt), func(a, b uint64) uint64 { return b2u(a < b) }},
		{"le", mk(model.OpLe), func(a, b uint64) uint64 { return b2u(a <= b) }},
		{"gt", mk(model.OpGt), func(a, b uint64) uint64 { return b2u(a > b) }},
		{"ge", mk(model.OpGe), func(a, b uint64) uint64 { return b2u(a >= b) }},
		{"land", mk(model.OpLAnd), func(a, b uint64) uint64 { return b2u(a != 0 && b != 0) }},
		{"lor", mk(model.OpLOr), func(a, b uint64) uint64 { return b2u(a != 0 || b != 0) }},
		{"not", &model.Un{Op: model.OpNot, X: &model.Ref{Name: "a"}},
			func(a, b uint64) uint64 { return b2u(a == 0) }},
		{"bitnot", &model.Un{Op: model.OpBitNot, X: &model.Ref{Name: "a"}},
			func(a, b uint64) uint64 { return ^a & 0xff }},
		{"neg", &model.Un{Op: model.OpNeg, X: &model.Ref{Name: "a"}},
			func(a, b uint64) uint64 { return (-a) & 0xff }},
		{"cond", &model.Cond{C: &model.Ref{Name: "a"}, T: &model.Ref{Name: "b"}, F: &model.Const{Width: 8, Val: 7}},
			func(a, b uint64) uint64 {
				if a != 0 {
					return b
				}
				return 7
			}},
		{"cast", &model.Cast{Width: 4, X: &model.Ref{Name: "a"}},
			func(a, b uint64) uint64 { return a & 0xf }},
	}
	inputs := [][2]uint64{{0, 0}, {1, 0}, {0, 1}, {7, 3}, {200, 100}, {255, 255}, {16, 9}, {5, 0}}
	for _, tc := range cases {
		prog := p.Clone()
		prog.Funcs["main"] = &model.Func{Name: "main", Body: []model.Stmt{
			&model.Assign{LHS: "r", RHS: tc.expr},
		}}
		prog.Entry = []string{"main"}
		for _, in := range inputs {
			res, err := Run(prog, Options{Input: func(name string, w int) uint64 {
				if name == "a" {
					return in[0]
				}
				return in[1]
			}})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want := tc.want(in[0], in[1]) & 0xff
			if res.Store["r"] != want {
				t.Fatalf("%s(%d,%d) = %d, want %d", tc.name, in[0], in[1], res.Store["r"], want)
			}
		}
	}
}

func TestErrorsOnUnknownGlobal(t *testing.T) {
	p := model.NewProgram()
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.Assign{LHS: "ghost", RHS: &model.Const{Width: 8, Val: 1}},
	}})
	p.Entry = []string{"main"}
	if _, err := Run(p, Options{}); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown global should error, got %v", err)
	}
}
