package sym

import (
	"reflect"
	"sync"
	"testing"

	"p4assert/internal/model"
	"p4assert/internal/progs"
	"p4assert/internal/whippersnapper"
)

func ref(name string) model.Expr { return &model.Ref{Name: name} }

func c8(v uint64) model.Expr { return &model.Const{Width: 8, Val: v} }

func set(name string, v model.Expr) model.Stmt { return &model.Assign{LHS: name, RHS: v} }

func assumeEq(name string, v uint64) model.Stmt {
	return &model.Assume{Cond: &model.Bin{Op: model.OpEq, X: ref(name), Y: c8(v)}}
}

// forkIsolationModel forks four ways after the parent has drawn h#1 and set
// the egress port. Every branch writes the store, draws inputs, notes a
// trace entry and recurses through rec; branch c also resets its draws, and
// branch b recurses past the call-depth bound. Branch d is the parent state
// itself.
func forkIsolationModel() *model.Program {
	p := model.NewProgram()
	p.AddGlobal(model.ForwardFlag, 1, false, 1)
	p.AddGlobal("std.egress_spec", 9, false, 0)
	p.AddGlobal("v", 8, false, 0)
	p.AddGlobal("n", 8, false, 0)
	p.AddGlobal("lim", 8, false, 0)
	// rec counts its activations in n and recurses while n < lim.
	p.AddFunc(&model.Func{Name: "rec", Body: []model.Stmt{
		set("n", &model.Bin{Op: model.OpAdd, X: ref("n"), Y: c8(1)}),
		&model.If{
			Cond: &model.Bin{Op: model.OpLt, X: ref("n"), Y: ref("lim")},
			Then: []model.Stmt{&model.Call{Func: "rec"}},
		},
	}})
	p.AddFunc(&model.Func{Name: "main", Body: []model.Stmt{
		&model.MakeSymbolic{Var: "v", Hint: "h"},
		assumeEq("v", 1),
		set("std.egress_spec", c8(5)),
		// Entering and leaving a block leaves the frame stack with spare
		// capacity, so children sharing it would overwrite each other's
		// frames.
		&model.If{Cond: &model.Const{Width: 1, Val: 1}, Then: []model.Stmt{set("n", c8(0))}},
		&model.Fork{Selector: "sel", Labels: []string{"a", "b", "c", "d"}, Branches: [][]model.Stmt{
			{ // a: two activations of rec
				set("std.egress_spec", c8(10)),
				set(model.ForwardFlag, &model.Const{Width: 1, Val: 0}),
				&model.MakeSymbolic{Var: "v", Hint: "h"},
				assumeEq("v", 2),
				&model.TraceNote{Label: "note-a"},
				set("lim", c8(2)),
				&model.Call{Func: "rec"},
			},
			{ // b: cut by the call-depth bound
				set("std.egress_spec", c8(20)),
				&model.MakeSymbolic{Var: "v", Hint: "h"},
				&model.TraceNote{Label: "note-b"},
				set("lim", c8(9)),
				&model.Call{Func: "rec"},
			},
			{ // c: restarts its draws, then three activations of rec
				set("std.egress_spec", c8(30)),
				&model.ResetDraws{},
				&model.MakeSymbolic{Var: "v", Hint: "h"},
				&model.MakeSymbolic{Var: "v", Hint: "g"},
				assumeEq("v", 3),
				&model.TraceNote{Label: "note-c"},
				set("lim", c8(3)),
				&model.Call{Func: "rec"},
			},
			{ // d: three activations of rec
				&model.MakeSymbolic{Var: "v", Hint: "h"},
				assumeEq("v", 4),
				set("lim", c8(3)),
				&model.Call{Func: "rec"},
				&model.TraceNote{Label: "note-d"},
			},
		}},
		// The egress port records how often rec ran on this path.
		set("std.egress_spec", &model.Bin{Op: model.OpAdd, X: ref("std.egress_spec"), Y: ref("n")}),
	}})
	p.Entry = []string{"main"}
	return p
}

// TestForkIsolation checks that no branch's writes reach a sibling or the
// parent: the store, the per-hint draw counts, the trace and the call
// depths are all per path.
func TestForkIsolation(t *testing.T) {
	res, err := Execute(forkIsolationModel(), Options{MaxCallDepth: 3, CollectTests: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []PathTest{
		{
			Inputs:  map[string]uint64{"h#1": 1, "h#2": 2},
			Trace:   []string{"sel=a", "note-a"},
			Outcome: PathOutcome{Forward: 0, Egress: 12},
		},
		{
			// ResetDraws made h#1 the parent's first draw again.
			Inputs:  map[string]uint64{"h#1": 1, "g#1": 3},
			Trace:   []string{"sel=c", "note-c"},
			Outcome: PathOutcome{Forward: 1, Egress: 33},
		},
		{
			Inputs:  map[string]uint64{"h#1": 1, "h#2": 4},
			Trace:   []string{"sel=d", "note-d"},
			Outcome: PathOutcome{Forward: 1, Egress: 8},
		},
	}
	if !reflect.DeepEqual(res.Tests, want) {
		t.Fatalf("tests\n got %+v\nwant %+v", res.Tests, want)
	}
	if res.Metrics.BoundExceeded != 1 || res.Metrics.Paths != 3 {
		t.Fatalf("BoundExceeded = %d, Paths = %d; want 1, 3", res.Metrics.BoundExceeded, res.Metrics.Paths)
	}
}

// checkDepth fails unless st's call depth of every function equals its
// activations on st's frame stack.
func checkDepth(t *testing.T, ex *executor, st *state, where string) {
	t.Helper()
	live := make([]int32, len(ex.funcs))
	for _, fr := range st.frames {
		if !fr.isBlock {
			live[fr.fn]++
		}
	}
	for name, f := range ex.funcs {
		got := int32(0)
		if st.depth != nil {
			got = st.depth[f.id]
		}
		if got != live[f.id] {
			t.Fatalf("%s: depth of %s is %d with %d live activations", where, name, got, live[f.id])
		}
	}
}

// TestCallDepthBalanced explores each model depth-first as Execute does and
// checks the call-depth count at every fork and at every path end, where
// no activation is live: every entry function's push is undone by its pop.
// Counting entry activations leaves the cut of mri's self-recursive
// swtrace parser state where it was.
func TestCallDepthBalanced(t *testing.T) {
	models := map[string]*model.Program{"fork-isolation": forkIsolationModel()}
	for _, p := range progs.All() {
		models[p.Name] = buildModel(t, p.Name, p.Source, corpusRules(t, p))
	}
	cfg := whippersnapper.Default(3)
	cfg.Protocols = 3
	models["ws-protocols"] = buildModel(t, "ws", whippersnapper.Generate(cfg), nil)

	for name, m := range models {
		ex := newExecutor(m, Options{})
		init, err := ex.initialState()
		if err != nil {
			t.Fatal(err)
		}
		stack := []*state{init}
		for len(stack) > 0 {
			st := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			paths := ex.met.Paths
			forks, err := ex.run(st)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ex.met.Paths > paths {
				checkDepth(t, ex, st, name+" path end")
			}
			for i := len(forks) - 1; i >= 0; i-- {
				checkDepth(t, ex, forks[i], name+" fork")
				stack = append(stack, forks[i])
			}
		}
		if ex.met.Paths == 0 {
			t.Fatalf("%s: no path completed", name)
		}
		if name == "mri" && (ex.met.BoundExceeded != 1 || ex.met.Paths != 55) {
			t.Fatalf("mri: BoundExceeded = %d, Paths = %d; want 1, 55", ex.met.BoundExceeded, ex.met.Paths)
		}
	}
}

// TestConcurrentExecutions runs executors on one program from several
// goroutines at once, as parallel submodel runs do: each executor's slot,
// label and draw-name caches are its own, so every run matches a
// sequential one.
func TestConcurrentExecutions(t *testing.T) {
	models := []*model.Program{forkIsolationModel(), tablesModel(t, 4)}
	opts := Options{MaxCallDepth: 3, CollectTests: true}
	want := make([]*Result, len(models))
	for i, m := range models {
		var err error
		if want[i], err = Execute(m, opts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range models {
				got, err := Execute(m, opts)
				if err != nil {
					t.Error(err)
					return
				}
				// Solver stats carry wall times; the rest must match.
				got.Metrics.Solver = want[i].Metrics.Solver
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("model %d: concurrent run differs from sequential run", i)
				}
			}
		}()
	}
	wg.Wait()
}
