package interp

import (
	"testing"

	"p4assert/internal/model"
)

// buildSemanticsModel exercises every operator class the compiler handles:
// width coercion, division and modulo by zero, over-wide shifts, casts,
// conditionals, nested calls, forks, assumes, asserts, halt + $checks.
func buildSemanticsModel() *model.Program {
	p := model.NewProgram()
	p.AddGlobal("in.a", 8, true, 0)
	p.AddGlobal("in.b", 8, true, 0)
	p.AddGlobal("wide", 16, false, 0)
	p.AddGlobal("x", 8, false, 0)
	p.AddGlobal("y", 8, false, 0)
	p.AddGlobal("drawn", 8, false, 0)
	p.AddGlobal("m.egress_spec", 9, false, 0)
	p.AddGlobal(model.ForwardFlag, 1, false, 1)

	ref := func(n string) model.Expr { return &model.Ref{Name: n} }
	k := func(w int, v uint64) model.Expr { return &model.Const{Width: w, Val: v} }
	bin := func(op model.Op, x, y model.Expr) model.Expr { return &model.Bin{Op: op, X: x, Y: y} }

	p.Funcs["math"] = &model.Func{Body: []model.Stmt{
		// Right operand resized to the left's width: 8-bit add of a 16-bit.
		&model.Assign{LHS: "x", RHS: bin(model.OpAdd, ref("in.a"), ref("wide"))},
		// Division by a possibly-zero symbolic: all-ones on zero.
		&model.Assign{LHS: "y", RHS: bin(model.OpDiv, ref("x"), ref("in.b"))},
		// Modulo by zero keeps the dividend.
		&model.Assign{LHS: "y", RHS: bin(model.OpMod, ref("y"), ref("in.b"))},
		// Shift by the symbolic amount: >= width yields zero.
		&model.Assign{LHS: "x", RHS: bin(model.OpShl, ref("x"), ref("in.b"))},
		&model.Assign{LHS: "x", RHS: bin(model.OpShr, ref("x"), k(8, 2))},
		// Comparison widens to the larger operand.
		&model.Assign{LHS: "wide", RHS: &model.Cond{
			C: bin(model.OpLt, ref("x"), ref("wide")),
			T: &model.Cast{Width: 16, X: bin(model.OpMul, ref("x"), k(8, 3))},
			F: bin(model.OpXor, ref("wide"), k(16, 0xf0f)),
		}},
		&model.Assign{LHS: "wide", RHS: &model.Un{Op: model.OpBitNot, X: ref("wide")}},
		&model.Assign{LHS: "x", RHS: &model.Un{Op: model.OpNeg, X: ref("x")}},
	}}
	p.Funcs["route"] = &model.Func{Body: []model.Stmt{
		&model.MakeSymbolic{Var: "drawn", Hint: "drawn"},
		&model.MakeSymbolic{Var: "drawn", Hint: "drawn"}, // second draw: drawn#2
		&model.Fork{
			Selector: "t.$action",
			Labels:   []string{"fwd", "drop"},
			Branches: [][]model.Stmt{
				{&model.Assign{LHS: "m.egress_spec", RHS: &model.Cast{Width: 9, X: ref("drawn")}}},
				{
					&model.Assign{LHS: model.ForwardFlag, RHS: k(1, 0)},
					&model.Assign{LHS: "m.egress_spec", RHS: k(9, 511)},
				},
			},
		},
	}}
	p.Funcs["main"] = &model.Func{Body: []model.Stmt{
		&model.Call{Func: "math"},
		&model.If{
			Cond: bin(model.OpEq, ref("in.a"), k(8, 0xff)),
			Then: []model.Stmt{&model.Halt{}},
		},
		&model.Call{Func: "route"},
		&model.Assume{Cond: bin(model.OpNe, ref("in.a"), k(8, 0x7e))},
	}}
	p.Funcs["$checks"] = &model.Func{Body: []model.Stmt{
		&model.AssertCheck{ID: 0, Cond: bin(model.OpNe, ref("m.egress_spec"), k(9, 13))},
		&model.AssertCheck{ID: 1, Cond: &model.Un{Op: model.OpNot, X: ref("y")}},
	}}
	p.Entry = []string{"main", "$checks"}
	p.Asserts = []*model.AssertInfo{
		{ID: 0, Source: "egress != 13"},
		{ID: 1, Source: "!y"},
	}
	return p
}

// TestBatchMatchesRun sweeps concrete inputs through both interpreters and
// requires identical observable outcomes.
func TestBatchMatchesRun(t *testing.T) {
	p := buildSemanticsModel()
	c, err := Compile(p, CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ex := c.NewExec()

	// An xorshift sweep gives deterministic, well-spread corner inputs.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	corner := []uint64{0, 1, 2, 0x7e, 0x7f, 0xff, 13, 511}

	for trial := 0; trial < 2000; trial++ {
		var a, b, d1, d2 uint64
		if trial < len(corner)*len(corner) {
			a = corner[trial%len(corner)]
			b = corner[trial/len(corner)]
			d1, d2 = 13, 7
		} else {
			a, b, d1, d2 = next(), next(), next(), next()
		}
		branch := int(next() % 2)
		inputs := map[string]uint64{
			"in.a": a & 0xff, "in.b": b & 0xff,
			"drawn#1": d1 & 0xff, "drawn#2": d2 & 0xff,
		}
		label := []string{"fwd", "drop"}[branch]

		ref, err := Run(p, Options{
			Input: func(name string, width int) uint64 { return inputs[name] },
			Choose: func(sel string, labels []string) int {
				if sel != "t.$action" {
					t.Fatalf("unexpected fork selector %q", sel)
				}
				return branch
			},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}

		in := c.LoadInputs(inputs)
		var dec []Decision
		if a&0xff != 0xff {
			// in.a == 0xff halts before the fork, so its decision would go
			// unconsumed; every other input reaches it exactly once.
			dec, err = c.LoadTrace([]string{"t.$action=" + label})
			if err != nil {
				t.Fatalf("LoadTrace: %v", err)
			}
		}
		got := ex.Run(in, dec)

		if got.AssumeViolated != ref.AssumeViolated {
			t.Fatalf("inputs %v: AssumeViolated batch=%t run=%t", inputs, got.AssumeViolated, ref.AssumeViolated)
		}
		if ref.AssumeViolated {
			continue // Run stops before the store is observable
		}
		want := ref.Outcome()
		if gotD, wantD := got.Outcome().Digest(), want.Digest(); gotD != wantD {
			t.Fatalf("inputs %v branch %s:\nbatch %s\nrun   %s", inputs, label, gotD, wantD)
		}
		if got.TraceErr != nil {
			t.Fatalf("inputs %v: trace error: %v", inputs, got.TraceErr)
		}
	}
}

func TestBatchCallDepthTruncation(t *testing.T) {
	p := model.NewProgram()
	p.AddGlobal("n", 8, false, 0)
	p.Funcs["loop"] = &model.Func{Body: []model.Stmt{
		&model.Assign{LHS: "n", RHS: &model.Bin{Op: model.OpAdd, X: &model.Ref{Name: "n"}, Y: &model.Const{Width: 8, Val: 1}}},
		&model.Call{Func: "loop"},
	}}
	p.Funcs["$checks"] = &model.Func{Body: []model.Stmt{
		&model.AssertCheck{ID: 0, Cond: &model.Const{Width: 1, Val: 0}},
	}}
	p.Entry = []string{"loop", "$checks"}
	p.Asserts = []*model.AssertInfo{{ID: 0, Source: "never"}}

	for _, depth := range []int{1, 3, 8} {
		c, err := Compile(p, CompileOptions{MaxCallDepth: depth})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		got := c.NewExec().Run(nil, nil)
		ref, err := Run(p, Options{MaxCallDepth: depth})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !got.Halted || !ref.Halted {
			t.Fatalf("depth %d: expected truncation, batch=%t run=%t", depth, got.Halted, ref.Halted)
		}
		// Truncation skips the final checks in both implementations.
		if len(got.FailureIDs()) != 0 || len(ref.Failures) != 0 {
			t.Fatalf("depth %d: failures after truncation: batch=%v run=%v", depth, got.FailureIDs(), ref.Failures)
		}
		// The entry activation counts toward the bound, as in the
		// symbolic executor, so depth increments happen before it trips.
		if refN := ref.Store["n"]; refN != uint64(depth) {
			t.Fatalf("depth %d: run executed %d increments, want %d", depth, refN, depth)
		}
	}
}

func TestLoadTraceUnknownEntry(t *testing.T) {
	p := buildSemanticsModel()
	c, err := Compile(p, CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := c.LoadTrace([]string{"t.$action=fwd"}); err != nil {
		t.Fatalf("known entry rejected: %v", err)
	}
	if _, err := c.LoadTrace([]string{"no.such=thing"}); err == nil {
		t.Fatal("unknown trace entry accepted")
	}
}

func TestBatchTraceMismatch(t *testing.T) {
	p := buildSemanticsModel()
	c, err := Compile(p, CompileOptions{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ex := c.NewExec()
	in := c.LoadInputs(map[string]uint64{"in.a": 1, "in.b": 1})

	// Too few decisions: the fork is reached beyond the trace.
	if res := ex.Run(in, nil); res.TraceErr == nil {
		t.Fatal("missing decision not reported")
	}
	// Too many decisions: leftovers after the run must be flagged.
	dec, err := c.LoadTrace([]string{"t.$action=fwd", "t.$action=drop"})
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	if res := ex.Run(in, dec); res.TraceErr == nil {
		t.Fatal("unconsumed decisions not reported")
	}
}
