// Batch mode: a model program compiled once into flat, slot-indexed
// bytecode, then replayed over many concrete packets with pre-resolved
// input slots — no map lookups, interface dispatch or per-statement
// allocation on the hot path. This is the throughput engine behind the
// test-packet oracle (testgen suites replay at millions of packets per
// second); the tree-walking Run above stays the readable reference
// implementation.
//
// The two interpreters deliberately share no evaluation code: batch
// results are cross-checked against Run in the package tests, so a
// miscompilation here cannot silently agree with itself.
package interp

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"p4assert/internal/model"
)

// Statement opcodes. Control flow is flattened into jumps; each function
// of the model compiles to a contiguous code region.
const (
	opAssign     = iota // eval expr -> store[a]
	opMakeSym           // store[a] = input for the next draw of hint b
	opJump              // pc = a
	opJumpZ             // eval expr; if zero pc = a
	opFork              // consume a decision for fork site a, jump to its branch
	opNote              // consume a decision for trace-note a
	opCall              // call function a (depth-bounded)
	opReturn            // return from the current function
	opExit              // unwind the current entry function
	opHalt              // parser reject: skip remaining non-$checks entries
	opAssume            // eval expr; zero stops the run (input outside space)
	opAssert            // eval expr; zero sets failure bit a
	opResetDraws        // restart per-hint input numbering
)

// Expression opcodes (postfix, evaluated on a value stack). Every operand
// width is static, so masks are precomputed per op.
const (
	exConst  = iota // push consts[a]
	exSlot          // push store[a]
	exCast          // re-mask top of stack
	exNot           // logical not (width 1)
	exBitNot        // ^x & mask
	exNeg           // -x & mask
	exCond          // c,t,f -> c!=0 ? t : f (masked)
	exEq
	exNe
	exLt
	exLe
	exGt
	exGe
	exLAnd
	exLOr
	exAdd
	exSub
	exMul
	exDiv
	exMod
	exAnd
	exOr
	exXor
	exShl
	exShr
)

type exprOp struct {
	kind uint8
	a    int32  // const index / slot index
	mask uint64 // result mask
	w    uint64 // operand width (shift bound)
}

type instr struct {
	op uint8
	a  int32 // slot / jump target / fork site / func id / assert id / note
	b  int32 // hint id (opMakeSym)
	es int32 // expression start in Compiled.ex
	el int32 // expression length
}

type forkSite struct {
	selector int32           // interned selector name
	branch   map[int32]int32 // interned label -> branch entry pc
}

type funcInfo struct {
	name  string
	start int32
}

type entryInfo struct {
	start  int32
	fid    int32
	checks bool // "$checks" runs even after a halt
}

// Decision is one pre-resolved trace entry. A fork decision carries the
// interned selector and label; Raw is the interned full entry text when
// the model knows it as a note label. Submodels record replaced split
// decisions as notes that themselves look like "selector=label", so one
// entry can be resolvable both ways; the executing op picks its reading.
type Decision struct {
	Selector int32
	Label    int32
	Raw      int32
}

// Compiled is a verification model compiled for batch replay. Compile
// once, then create one Exec per goroutine; Exec.Run is allocation-free
// after warm-up.
type Compiled struct {
	p *model.Program

	slots    map[string]int
	masks    []uint64 // per-slot width mask
	init     []uint64 // initial store (symbolic slots filled per run)
	symSlots []symSlot

	code    []instr
	ex      []exprOp
	consts  []uint64
	entries []entryInfo
	funcs   []funcInfo
	forks   []forkSite

	maxCallDepth int
	maxStack     int

	// String interning for selectors, fork labels and note texts.
	strIDs map[string]int32
	strs   []string

	// Input space. Input names are interned densely at suite-load time;
	// MakeSymbolic sites resolve "hint#k" draw names through hintDraws.
	hints     map[string]int32
	hintNames []string
	inputIDs  map[string]int32
	hintDraws [][]int32 // hint id -> draw (k-1) -> input index, -1 = unseen

	forwardSlot int32 // -1 when the model has no $forward global
	egressSlot  int32 // -1 when no *.egress_spec global
	numAsserts  int
}

type symSlot struct {
	slot  int32
	input int32 // input index of the global's own name
}

// CompileOptions bounds compiled execution.
type CompileOptions struct {
	// MaxCallDepth bounds recursion as in Run (0 = default 8).
	MaxCallDepth int
}

// Compile flattens the model into batch bytecode.
func Compile(p *model.Program, opts CompileOptions) (*Compiled, error) {
	if opts.MaxCallDepth == 0 {
		opts.MaxCallDepth = 8
	}
	c := &Compiled{
		p:            p,
		slots:        make(map[string]int, len(p.Globals)),
		strIDs:       map[string]int32{},
		hints:        map[string]int32{},
		inputIDs:     map[string]int32{},
		maxCallDepth: opts.MaxCallDepth,
		forwardSlot:  -1,
		egressSlot:   -1,
		numAsserts:   len(p.Asserts),
	}
	for _, g := range p.Globals {
		s := len(c.init)
		c.slots[g.Name] = s
		c.masks = append(c.masks, mask(g.Width))
		v := uint64(0)
		if g.Symbolic {
			c.symSlots = append(c.symSlots, symSlot{slot: int32(s), input: c.inputIndex(g.Name)})
		} else {
			v = g.Init & mask(g.Width)
		}
		c.init = append(c.init, v)
		if g.Name == model.ForwardFlag {
			c.forwardSlot = int32(s)
		}
		if c.egressSlot < 0 && strings.HasSuffix(g.Name, ".egress_spec") {
			c.egressSlot = int32(s)
		}
	}

	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	cc := &compiler{c: c, funcID: map[string]int32{}}
	for _, name := range names {
		cc.funcID[name] = int32(len(c.funcs))
		c.funcs = append(c.funcs, funcInfo{name: name})
	}
	for _, name := range names {
		c.funcs[cc.funcID[name]].start = int32(len(c.code))
		cc.body(p.Funcs[name].Body)
		cc.emit(instr{op: opReturn})
	}
	for _, e := range p.Entry {
		id, ok := cc.funcID[e]
		if !ok {
			return nil, fmt.Errorf("interp: entry %s not found", e)
		}
		c.entries = append(c.entries, entryInfo{
			start:  c.funcs[id].start,
			fid:    id,
			checks: e == "$checks",
		})
	}
	if cc.fail != nil {
		return nil, cc.fail
	}
	if c.maxStack < 1 {
		c.maxStack = 1
	}
	return c, nil
}

type compiler struct {
	c      *Compiled
	funcID map[string]int32
	fail   error
}

func (cc *compiler) errf(format string, args ...any) {
	if cc.fail == nil {
		cc.fail = fmt.Errorf("interp: "+format, args...)
	}
}

func (cc *compiler) emit(i instr) int32 {
	cc.c.code = append(cc.c.code, i)
	return int32(len(cc.c.code) - 1)
}

func (cc *compiler) body(body []model.Stmt) {
	for _, s := range body {
		cc.stmt(s)
	}
}

func (cc *compiler) stmt(s model.Stmt) {
	c := cc.c
	switch st := s.(type) {
	case *model.Assign:
		slot, ok := c.slots[st.LHS]
		if !ok {
			cc.errf("unknown global %s", st.LHS)
			return
		}
		es, el := cc.expr(st.RHS)
		cc.emit(instr{op: opAssign, a: int32(slot), es: es, el: el})

	case *model.MakeSymbolic:
		slot, ok := c.slots[st.Var]
		if !ok {
			cc.errf("unknown global %s", st.Var)
			return
		}
		cc.emit(instr{op: opMakeSym, a: int32(slot), b: c.hintID(st.Hint)})

	case *model.If:
		es, el := cc.expr(st.Cond)
		jz := cc.emit(instr{op: opJumpZ, es: es, el: el})
		cc.body(st.Then)
		if len(st.Else) > 0 {
			j := cc.emit(instr{op: opJump})
			c.code[jz].a = int32(len(c.code))
			cc.body(st.Else)
			c.code[j].a = int32(len(c.code))
		} else {
			c.code[jz].a = int32(len(c.code))
		}

	case *model.Fork:
		siteID := int32(len(c.forks))
		c.forks = append(c.forks, forkSite{
			selector: c.intern(st.Selector),
			branch:   map[int32]int32{},
		})
		cc.emit(instr{op: opFork, a: siteID})
		var ends []int32
		for i, br := range st.Branches {
			label := ""
			if i < len(st.Labels) {
				label = st.Labels[i]
			}
			c.forks[siteID].branch[c.intern(label)] = int32(len(c.code))
			cc.body(br)
			ends = append(ends, cc.emit(instr{op: opJump}))
		}
		for _, e := range ends {
			c.code[e].a = int32(len(c.code))
		}

	case *model.Call:
		id, ok := cc.funcID[st.Func]
		if !ok {
			cc.errf("unknown function %s", st.Func)
			return
		}
		cc.emit(instr{op: opCall, a: id})

	case *model.Assume:
		es, el := cc.expr(st.Cond)
		cc.emit(instr{op: opAssume, es: es, el: el})

	case *model.AssertCheck:
		es, el := cc.expr(st.Cond)
		cc.emit(instr{op: opAssert, a: int32(st.ID), es: es, el: el})

	case *model.Return:
		cc.emit(instr{op: opReturn})

	case *model.Exit:
		cc.emit(instr{op: opExit})

	case *model.Halt:
		cc.emit(instr{op: opHalt})

	case *model.TraceNote:
		cc.emit(instr{op: opNote, a: c.intern(st.Label)})

	case *model.ResetDraws:
		cc.emit(instr{op: opResetDraws})

	default:
		cc.errf("unknown statement %T", s)
	}
}

// expr compiles e to postfix ops, returning its (start, length) in c.ex.
// Static widths follow the same coercion rules evalW documents: right
// operand resized to the left's width for arithmetic, max-widening for
// comparisons, truth values for logical operators.
func (cc *compiler) expr(e model.Expr) (int32, int32) {
	start := int32(len(cc.c.ex))
	depth, _ := cc.compileExpr(e, 0)
	if depth > cc.c.maxStack {
		cc.c.maxStack = depth
	}
	return start, int32(len(cc.c.ex)) - start
}

// compileExpr emits ops for e; cur is the stack depth before e's ops run.
// It returns the peak depth reached and e's static width.
func (cc *compiler) compileExpr(e model.Expr, cur int) (int, int) {
	c := cc.c
	push := func(op exprOp) { c.ex = append(c.ex, op) }
	switch x := e.(type) {
	case *model.Const:
		idx := int32(len(c.consts))
		c.consts = append(c.consts, x.Val&mask(x.Width))
		push(exprOp{kind: exConst, a: idx})
		return cur + 1, x.Width

	case *model.Ref:
		slot, ok := c.slots[x.Name]
		if !ok {
			cc.errf("unknown global %s", x.Name)
			return cur + 1, 1
		}
		g, _ := c.p.Global(x.Name)
		push(exprOp{kind: exSlot, a: int32(slot)})
		return cur + 1, g.Width

	case *model.Cast:
		peak, _ := cc.compileExpr(x.X, cur)
		push(exprOp{kind: exCast, mask: mask(x.Width)})
		return peak, x.Width

	case *model.Un:
		peak, w := cc.compileExpr(x.X, cur)
		switch x.Op {
		case model.OpNot:
			push(exprOp{kind: exNot})
			return peak, 1
		case model.OpBitNot:
			push(exprOp{kind: exBitNot, mask: mask(w)})
			return peak, w
		case model.OpNeg:
			push(exprOp{kind: exNeg, mask: mask(w)})
			return peak, w
		}
		cc.errf("bad unary %v", x.Op)
		return peak, w

	case *model.Cond:
		p1, _ := cc.compileExpr(x.C, cur)
		p2, tw := cc.compileExpr(x.T, cur+1)
		p3, fw := cc.compileExpr(x.F, cur+2)
		w := tw
		if fw > w {
			w = fw
		}
		push(exprOp{kind: exCond, mask: mask(w)})
		return max3(p1, p2, p3), w

	case *model.Bin:
		p1, aw := cc.compileExpr(x.X, cur)
		p2, bw := cc.compileExpr(x.Y, cur+1)
		peak := p1
		if p2 > peak {
			peak = p2
		}
		switch x.Op {
		case model.OpLAnd:
			push(exprOp{kind: exLAnd})
			return peak, 1
		case model.OpLOr:
			push(exprOp{kind: exLOr})
			return peak, 1
		case model.OpEq, model.OpNe, model.OpLt, model.OpLe, model.OpGt, model.OpGe:
			w := aw
			if bw > w {
				w = bw
			}
			push(exprOp{kind: cmpKind[x.Op], mask: mask(w)})
			return peak, 1
		}
		kind, ok := arithKind[x.Op]
		if !ok {
			cc.errf("bad binary %v", x.Op)
			return peak, aw
		}
		push(exprOp{kind: kind, mask: mask(aw), w: uint64(aw)})
		return peak, aw
	}
	cc.errf("unknown expression %T", e)
	return cur + 1, 1
}

var cmpKind = map[model.Op]uint8{
	model.OpEq: exEq, model.OpNe: exNe, model.OpLt: exLt,
	model.OpLe: exLe, model.OpGt: exGt, model.OpGe: exGe,
}

var arithKind = map[model.Op]uint8{
	model.OpAdd: exAdd, model.OpSub: exSub, model.OpMul: exMul,
	model.OpDiv: exDiv, model.OpMod: exMod, model.OpAnd: exAnd,
	model.OpOr: exOr, model.OpXor: exXor, model.OpShl: exShl,
	model.OpShr: exShr,
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func (c *Compiled) intern(s string) int32 {
	if id, ok := c.strIDs[s]; ok {
		return id
	}
	id := int32(len(c.strs))
	c.strIDs[s] = id
	c.strs = append(c.strs, s)
	return id
}

func (c *Compiled) hintID(h string) int32 {
	if id, ok := c.hints[h]; ok {
		return id
	}
	id := int32(len(c.hintNames))
	c.hints[h] = id
	c.hintNames = append(c.hintNames, h)
	c.hintDraws = append(c.hintDraws, nil)
	return id
}

func (c *Compiled) inputIndex(name string) int32 {
	if id, ok := c.inputIDs[name]; ok {
		return id
	}
	id := int32(len(c.inputIDs))
	c.inputIDs[name] = id
	return id
}

// NumInputs is the size of the dense input space interned so far.
func (c *Compiled) NumInputs() int { return len(c.inputIDs) }

// LoadInputs resolves a named input assignment — "hint#k" draw names and
// initial symbolic globals, as produced by test generation — into a dense
// vector for Exec.Run. Loading interns new names and is not safe for
// concurrent use; Run is, with one Exec per goroutine.
func (c *Compiled) LoadInputs(inputs map[string]uint64) []uint64 {
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic interning order
	idx := make([]int32, len(names))
	maxID := int32(-1)
	for i, name := range names {
		id := c.inputIndex(name)
		c.registerDraw(name, id)
		idx[i] = id
		if id > maxID {
			maxID = id
		}
	}
	in := make([]uint64, maxID+1)
	for i, name := range names {
		in[idx[i]] = inputs[name]
	}
	return in
}

// registerDraw records name into the hint-draw table when it has the
// "hint#k" shape for a hint the program draws.
func (c *Compiled) registerDraw(name string, id int32) {
	cut := strings.LastIndexByte(name, '#')
	if cut < 0 {
		return
	}
	hid, ok := c.hints[name[:cut]]
	if !ok {
		return
	}
	k := 0
	for _, d := range name[cut+1:] {
		if d < '0' || d > '9' {
			return
		}
		k = k*10 + int(d-'0')
	}
	if k <= 0 {
		return
	}
	draws := c.hintDraws[hid]
	for len(draws) < k {
		draws = append(draws, -1)
	}
	draws[k-1] = id
	c.hintDraws[hid] = draws
}

// LoadTrace pre-resolves a symbolic path trace ("selector=label" fork
// entries interleaved with trace-note texts) into decisions the fork/note
// ops consume. Unknown entries fail here, at load time, not per replay.
func (c *Compiled) LoadTrace(trace []string) ([]Decision, error) {
	out := make([]Decision, 0, len(trace))
	for _, e := range trace {
		d := Decision{Selector: -1, Label: -1, Raw: -1}
		if raw, ok := c.strIDs[e]; ok {
			d.Raw = raw
		}
		if eq := strings.IndexByte(e, '='); eq >= 0 {
			if sel, ok := c.strIDs[e[:eq]]; ok {
				if label, ok := c.strIDs[e[eq+1:]]; ok {
					d.Selector = sel
					d.Label = label
				}
			}
		}
		if d.Raw < 0 && d.Selector < 0 {
			return nil, fmt.Errorf("interp: trace entry %q unknown to the model", e)
		}
		out = append(out, d)
	}
	return out, nil
}

// BatchResult is one packet's outcome in batch mode. Failures is a bitset
// over assertion IDs; it aliases Exec scratch and is valid until the next
// Run on that Exec.
type BatchResult struct {
	Halted         bool
	AssumeViolated bool
	Forward        uint64
	Egress         uint64
	Failures       []uint64
	// TraceErr reports a divergence between the packet's pre-resolved
	// decisions and the forks the replay actually reached.
	TraceErr error
	// Instructions counts executed bytecode ops.
	Instructions int64
}

// FailureIDs expands the failure bitset into a sorted ID list.
func (r *BatchResult) FailureIDs() []int {
	var out []int
	for w, word := range r.Failures {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, w*64+b)
			word &^= 1 << uint(b)
		}
	}
	return out
}

// Outcome converts a batch result to the canonical observable shape so
// its digest compares directly against Run's and the symbolic engine's.
func (r *BatchResult) Outcome() Outcome {
	return Outcome{
		Halted:   r.Halted,
		Forward:  r.Forward,
		Egress:   r.Egress,
		Failures: r.FailureIDs(),
	}
}

// Exec is per-goroutine replay scratch for one Compiled program.
type Exec struct {
	c       *Compiled
	store   []uint64
	stack   []uint64
	calls   []int32 // interleaved (return pc, func id) pairs
	depth   []int32 // per-function activation counts
	drawCnt []int32 // per-hint draw counters
	fails   []uint64
}

// NewExec allocates replay scratch. Use one Exec per goroutine.
func (c *Compiled) NewExec() *Exec {
	return &Exec{
		c:       c,
		store:   make([]uint64, len(c.init)),
		stack:   make([]uint64, c.maxStack),
		calls:   make([]int32, 0, 2*c.maxCallDepth),
		depth:   make([]int32, len(c.funcs)),
		drawCnt: make([]int32, len(c.hintNames)),
		fails:   make([]uint64, (c.numAsserts+63)/64),
	}
}

// Run replays one packet: in is a dense input vector from LoadInputs, dec
// the pre-resolved decisions from LoadTrace. The result's Failures slice
// aliases Exec scratch and is valid until the next Run.
func (e *Exec) Run(in []uint64, dec []Decision) BatchResult {
	c := e.c
	copy(e.store, c.init)
	for i := range e.depth {
		e.depth[i] = 0
	}
	for i := range e.drawCnt {
		e.drawCnt[i] = 0
	}
	for i := range e.fails {
		e.fails[i] = 0
	}
	for _, s := range c.symSlots {
		e.store[s.slot] = e.input(in, s.input) & c.masks[s.slot]
	}

	res := BatchResult{Failures: e.fails}
	di := 0
	halted := false

	for _, entry := range c.entries {
		if halted && !entry.checks {
			continue
		}
		pc := entry.start
		e.calls = e.calls[:0]
		e.depth[entry.fid]++
	loop:
		for {
			ins := &c.code[pc]
			pc++
			res.Instructions++
			switch ins.op {
			case opAssign:
				e.store[ins.a] = e.eval(ins) & c.masks[ins.a]
			case opMakeSym:
				e.drawCnt[ins.b]++
				k := e.drawCnt[ins.b]
				v := uint64(0)
				if draws := c.hintDraws[ins.b]; int(k) <= len(draws) {
					if idx := draws[k-1]; idx >= 0 {
						v = e.input(in, idx)
					}
				}
				e.store[ins.a] = v & c.masks[ins.a]
			case opJump:
				pc = ins.a
			case opJumpZ:
				if e.eval(ins) == 0 {
					pc = ins.a
				}
			case opFork:
				site := &c.forks[ins.a]
				if di >= len(dec) {
					res.TraceErr = fmt.Errorf("interp: replay reached fork %q beyond the recorded trace",
						c.strs[site.selector])
					return e.finish(res)
				}
				d := dec[di]
				di++
				if d.Selector != site.selector {
					res.TraceErr = fmt.Errorf("interp: replay reached fork %q but the trace records %q",
						c.strs[site.selector], c.decisionString(d))
					return e.finish(res)
				}
				target, ok := site.branch[d.Label]
				if !ok {
					res.TraceErr = fmt.Errorf("interp: fork %q has no branch labelled %q",
						c.strs[site.selector], c.strs[d.Label])
					return e.finish(res)
				}
				pc = target
			case opNote:
				if di >= len(dec) {
					res.TraceErr = fmt.Errorf("interp: replay reached note %q beyond the recorded trace",
						c.strs[ins.a])
					return e.finish(res)
				}
				d := dec[di]
				di++
				if d.Raw != ins.a {
					res.TraceErr = fmt.Errorf("interp: replay reached note %q but the trace records %q",
						c.strs[ins.a], c.decisionString(d))
					return e.finish(res)
				}
			case opCall:
				if e.depth[ins.a] >= int32(c.maxCallDepth) {
					// Truncated execution: stop entirely without running the
					// final checks, mirroring Run and the symbolic executor.
					res.Halted = true
					return e.finish(res)
				}
				e.depth[ins.a]++
				e.calls = append(e.calls, pc, ins.a)
				pc = c.funcs[ins.a].start
			case opReturn:
				if len(e.calls) == 0 {
					e.depth[entry.fid]--
					break loop // entry function done
				}
				fid := e.calls[len(e.calls)-1]
				pc = e.calls[len(e.calls)-2]
				e.calls = e.calls[:len(e.calls)-2]
				e.depth[fid]--
			case opExit:
				e.calls = e.calls[:0]
				for i := range e.depth {
					e.depth[i] = 0
				}
				break loop
			case opHalt:
				e.calls = e.calls[:0]
				for i := range e.depth {
					e.depth[i] = 0
				}
				halted = true
				res.Halted = true
				break loop
			case opAssume:
				if e.eval(ins) == 0 {
					res.AssumeViolated = true
					return e.finish(res)
				}
			case opAssert:
				if e.eval(ins) == 0 {
					e.fails[ins.a>>6] |= 1 << uint(ins.a&63)
				}
			case opResetDraws:
				for i := range e.drawCnt {
					e.drawCnt[i] = 0
				}
			}
		}
	}
	if di != len(dec) {
		res.TraceErr = fmt.Errorf("interp: replay consumed %d of %d trace decisions", di, len(dec))
	}
	return e.finish(res)
}

// finish reads the observable outputs from the store, matching what
// Result.Outcome reads regardless of how the run ended.
func (e *Exec) finish(res BatchResult) BatchResult {
	if e.c.forwardSlot >= 0 {
		res.Forward = e.store[e.c.forwardSlot]
	}
	if e.c.egressSlot >= 0 {
		res.Egress = e.store[e.c.egressSlot]
	}
	return res
}

func (e *Exec) input(in []uint64, idx int32) uint64 {
	if int(idx) < len(in) {
		return in[idx]
	}
	return 0
}

func (c *Compiled) decisionString(d Decision) string {
	if d.Raw >= 0 {
		return c.strs[d.Raw]
	}
	if d.Selector >= 0 {
		return c.strs[d.Selector] + "=" + c.strs[d.Label]
	}
	return "?"
}

// eval runs an instruction's postfix expression on the Exec stack. Stack
// values are always within their static width, so binary ops re-mask only
// where the semantics require it (right operands resized to the left's
// width; modular +,-,&,|,^ are width-stable under the final mask).
func (e *Exec) eval(ins *instr) uint64 {
	c := e.c
	ops := c.ex[ins.es : ins.es+ins.el]
	sp := 0
	st := e.stack
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case exConst:
			st[sp] = c.consts[op.a]
			sp++
		case exSlot:
			st[sp] = e.store[op.a]
			sp++
		case exCast:
			st[sp-1] &= op.mask
		case exNot:
			st[sp-1] = b2u(st[sp-1] == 0)
		case exBitNot:
			st[sp-1] = ^st[sp-1] & op.mask
		case exNeg:
			st[sp-1] = (-st[sp-1]) & op.mask
		case exCond:
			sp -= 2
			if st[sp-1] != 0 {
				st[sp-1] = st[sp] & op.mask
			} else {
				st[sp-1] = st[sp+1] & op.mask
			}
		case exLAnd:
			sp--
			st[sp-1] = b2u(st[sp-1] != 0 && st[sp] != 0)
		case exLOr:
			sp--
			st[sp-1] = b2u(st[sp-1] != 0 || st[sp] != 0)
		case exEq:
			sp--
			st[sp-1] = b2u(st[sp-1] == st[sp])
		case exNe:
			sp--
			st[sp-1] = b2u(st[sp-1] != st[sp])
		case exLt:
			sp--
			st[sp-1] = b2u(st[sp-1] < st[sp])
		case exLe:
			sp--
			st[sp-1] = b2u(st[sp-1] <= st[sp])
		case exGt:
			sp--
			st[sp-1] = b2u(st[sp-1] > st[sp])
		case exGe:
			sp--
			st[sp-1] = b2u(st[sp-1] >= st[sp])
		case exAdd:
			sp--
			st[sp-1] = (st[sp-1] + st[sp]) & op.mask
		case exSub:
			sp--
			st[sp-1] = (st[sp-1] - st[sp]) & op.mask
		case exMul:
			sp--
			st[sp-1] = (st[sp-1] * (st[sp] & op.mask)) & op.mask
		case exDiv:
			sp--
			if b := st[sp] & op.mask; b == 0 {
				st[sp-1] = op.mask
			} else {
				st[sp-1] = (st[sp-1] / b) & op.mask
			}
		case exMod:
			sp--
			if b := st[sp] & op.mask; b != 0 {
				st[sp-1] = (st[sp-1] % b) & op.mask
			}
		case exAnd:
			sp--
			st[sp-1] = st[sp-1] & st[sp] & op.mask
		case exOr:
			sp--
			st[sp-1] = (st[sp-1] | st[sp]) & op.mask
		case exXor:
			sp--
			st[sp-1] = (st[sp-1] ^ st[sp]) & op.mask
		case exShl:
			sp--
			if b := st[sp] & op.mask; b >= op.w {
				st[sp-1] = 0
			} else {
				st[sp-1] = (st[sp-1] << b) & op.mask
			}
		case exShr:
			sp--
			if b := st[sp] & op.mask; b >= op.w {
				st[sp-1] = 0
			} else {
				st[sp-1] = (st[sp-1] >> b) & op.mask
			}
		}
	}
	return st[sp-1]
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
