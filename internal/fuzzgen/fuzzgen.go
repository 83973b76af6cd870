// Package fuzzgen generates random, well-typed, assertion-annotated P4_16
// programs within the verifier's supported subset: random header layouts,
// parser state machines with select transitions, tables with random action
// sets (forwarding-rule-configured, const-entry, or fully symbolic), and
// arithmetic/conditional action and apply bodies sprinkled with
// assertion-language annotations.
//
// Generated programs drive the differential and metamorphic oracles of
// internal/difftest: every program must produce identical verdicts across
// the pipeline's technique matrix, and every explored path must replay
// identically through the independent concrete interpreter. The generator
// is fully deterministic in its seed (math/rand/v2 PCG), so any
// fuzz-found miscompare is reproducible from its seed alone, and a failing
// program can be shrunk by iterative statement deletion (Minimize).
package fuzzgen

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"p4assert/internal/rules"
)

// widths is the pool of field bit-widths the generator draws from; it
// includes the awkward sizes (1, 9, 48) the corpus programs exercise.
var widths = []int{1, 4, 8, 9, 16, 32, 48}

// ---------------------------------------------------------------- spec --

// Spec is the structured form of a generated program. Minimization edits
// the spec (deleting statements, entries, rules, select cases) and
// re-renders, so every shrunk candidate is still syntactically valid.
type Spec struct {
	Headers []HeaderSpec
	Meta    []FieldSpec
	Select  *SelectSpec // start-state transition; nil = plain accept
	States  []StateSpec // extra parser states (one extracted header each)
	Actions []ActionSpec
	Tables  []TableSpec
	Apply   []Stmt
	Emits   []string // header names the deparser emits, in order
	// RuleLines is an optional control-plane configuration in the
	// internal/rules text format.
	RuleLines []string
}

// HeaderSpec declares one header type and its instance name.
type HeaderSpec struct {
	Name   string // instance name in headers_t (h0, h1, ...)
	Fields []FieldSpec
}

// FieldSpec is one bit<W> field.
type FieldSpec struct {
	Name  string
	Width int
}

// SelectSpec is the start state's select transition.
type SelectSpec struct {
	Key     string // field path on the first header, e.g. "hdr.h0.f0"
	Cases   []SelectCase
	Default string // "accept", "reject" or a state name
}

// SelectCase maps one literal to a transition target.
type SelectCase struct {
	Value  uint64
	Target string
}

// StateSpec is a non-start parser state extracting one header.
type StateSpec struct {
	Name   string
	Header string
}

// ActionSpec is one control action.
type ActionSpec struct {
	Name   string
	Params []FieldSpec
	Body   []Stmt
}

// TableSpec is one match-action table.
type TableSpec struct {
	Name    string
	Key     string // field path
	KeyKind string // "exact" or "ternary"
	Actions []string
	Default ActionCall
	Entries []EntrySpec
}

// ActionCall names an action with constant arguments.
type ActionCall struct {
	Name string
	Args []uint64
}

// EntrySpec is one const entry.
type EntrySpec struct {
	Wildcard bool
	Value    uint64
	Mask     uint64 // 0 = exact entry
	Call     ActionCall
}

// ------------------------------------------------------------ statements --

// Stmt is a renderable statement of an action body or apply block.
type Stmt interface {
	render(b *strings.Builder, indent string)
	clone() Stmt
}

// AssignStmt is "LHS = RHS;" with pre-rendered well-typed expressions.
type AssignStmt struct{ LHS, RHS string }

// IfStmt branches on a pre-rendered boolean condition.
type IfStmt struct {
	Cond string
	Then []Stmt
	Else []Stmt
}

// ApplyStmt applies a table, optionally branching on the hit result.
type ApplyStmt struct {
	Table string
	// HitThen, when non-nil, renders "if (T.apply().hit) { ... }".
	HitThen []Stmt
	HitElse []Stmt
	Hit     bool
}

// AssertStmt is an @assert annotation.
type AssertStmt struct{ Text string }

// AssumeStmt is an @assume annotation.
type AssumeStmt struct{ Cond string }

// DropStmt is mark_to_drop(standard_metadata).
type DropStmt struct{}

func (s *AssignStmt) render(b *strings.Builder, in string) {
	fmt.Fprintf(b, "%s%s = %s;\n", in, s.LHS, s.RHS)
}
func (s *AssignStmt) clone() Stmt { c := *s; return &c }

func (s *IfStmt) render(b *strings.Builder, in string) {
	fmt.Fprintf(b, "%sif (%s) {\n", in, s.Cond)
	renderBody(b, s.Then, in+"    ")
	if len(s.Else) > 0 {
		fmt.Fprintf(b, "%s} else {\n", in)
		renderBody(b, s.Else, in+"    ")
	}
	fmt.Fprintf(b, "%s}\n", in)
}
func (s *IfStmt) clone() Stmt {
	return &IfStmt{Cond: s.Cond, Then: cloneBody(s.Then), Else: cloneBody(s.Else)}
}

func (s *ApplyStmt) render(b *strings.Builder, in string) {
	if !s.Hit {
		fmt.Fprintf(b, "%s%s.apply();\n", in, s.Table)
		return
	}
	fmt.Fprintf(b, "%sif (%s.apply().hit) {\n", in, s.Table)
	renderBody(b, s.HitThen, in+"    ")
	if len(s.HitElse) > 0 {
		fmt.Fprintf(b, "%s} else {\n", in)
		renderBody(b, s.HitElse, in+"    ")
	}
	fmt.Fprintf(b, "%s}\n", in)
}
func (s *ApplyStmt) clone() Stmt {
	return &ApplyStmt{Table: s.Table, Hit: s.Hit, HitThen: cloneBody(s.HitThen), HitElse: cloneBody(s.HitElse)}
}

func (s *AssertStmt) render(b *strings.Builder, in string) {
	fmt.Fprintf(b, "%s@assert(%q);\n", in, s.Text)
}
func (s *AssertStmt) clone() Stmt { c := *s; return &c }

func (s *AssumeStmt) render(b *strings.Builder, in string) {
	fmt.Fprintf(b, "%s@assume(%s);\n", in, s.Cond)
}
func (s *AssumeStmt) clone() Stmt { c := *s; return &c }

func (s *DropStmt) render(b *strings.Builder, in string) {
	fmt.Fprintf(b, "%smark_to_drop(standard_metadata);\n", in)
}
func (s *DropStmt) clone() Stmt { return &DropStmt{} }

func renderBody(b *strings.Builder, body []Stmt, indent string) {
	for _, s := range body {
		s.render(b, indent)
	}
}

func cloneBody(body []Stmt) []Stmt {
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = s.clone()
	}
	return out
}

// --------------------------------------------------------------- program --

// Program is one generated fuzz program.
type Program struct {
	Seed uint64
	Spec *Spec
}

// Name is a stable identifier for reports and regression registration.
func (p *Program) Name() string { return fmt.Sprintf("fuzz-%d", p.Seed) }

// Source renders the spec as P4_16 text.
func (p *Program) Source() string { return p.Spec.Render() }

// Rules parses the spec's rule lines into a RuleSet (nil when the program
// carries no control-plane configuration).
func (p *Program) Rules() (*rules.RuleSet, error) {
	if len(p.Spec.RuleLines) == 0 {
		return nil, nil
	}
	return rules.Parse(strings.Join(p.Spec.RuleLines, "\n"))
}

// Clone deep-copies the program (minimization mutates clones).
func (p *Program) Clone() *Program {
	s := &Spec{
		Headers:   append([]HeaderSpec(nil), p.Spec.Headers...),
		Meta:      append([]FieldSpec(nil), p.Spec.Meta...),
		States:    append([]StateSpec(nil), p.Spec.States...),
		Tables:    make([]TableSpec, len(p.Spec.Tables)),
		Actions:   make([]ActionSpec, len(p.Spec.Actions)),
		Apply:     cloneBody(p.Spec.Apply),
		Emits:     append([]string(nil), p.Spec.Emits...),
		RuleLines: append([]string(nil), p.Spec.RuleLines...),
	}
	if p.Spec.Select != nil {
		sel := *p.Spec.Select
		sel.Cases = append([]SelectCase(nil), p.Spec.Select.Cases...)
		s.Select = &sel
	}
	for i, a := range p.Spec.Actions {
		s.Actions[i] = ActionSpec{Name: a.Name, Params: append([]FieldSpec(nil), a.Params...), Body: cloneBody(a.Body)}
	}
	for i, t := range p.Spec.Tables {
		ct := t
		ct.Actions = append([]string(nil), t.Actions...)
		ct.Entries = append([]EntrySpec(nil), t.Entries...)
		s.Tables[i] = ct
	}
	return &Program{Seed: p.Seed, Spec: s}
}

// Render produces the P4_16 source for the spec.
func (s *Spec) Render() string {
	var b strings.Builder
	for _, h := range s.Headers {
		fmt.Fprintf(&b, "header %s_t {\n", h.Name)
		for _, f := range h.Fields {
			fmt.Fprintf(&b, "    bit<%d> %s;\n", f.Width, f.Name)
		}
		b.WriteString("}\n")
	}
	b.WriteString("struct headers_t {\n")
	for _, h := range s.Headers {
		fmt.Fprintf(&b, "    %s_t %s;\n", h.Name, h.Name)
	}
	b.WriteString("}\nstruct metadata_t {\n")
	for _, f := range s.Meta {
		fmt.Fprintf(&b, "    bit<%d> %s;\n", f.Width, f.Name)
	}
	b.WriteString("}\n\n")

	b.WriteString("parser FP(packet_in pkt, out headers_t hdr, inout metadata_t meta,\n")
	b.WriteString("          inout standard_metadata_t standard_metadata) {\n")
	b.WriteString("    state start {\n")
	if len(s.Headers) > 0 {
		fmt.Fprintf(&b, "        pkt.extract(hdr.%s);\n", s.Headers[0].Name)
	}
	if s.Select == nil {
		b.WriteString("        transition accept;\n")
	} else {
		fmt.Fprintf(&b, "        transition select(%s) {\n", s.Select.Key)
		for _, c := range s.Select.Cases {
			fmt.Fprintf(&b, "            %d: %s;\n", c.Value, c.Target)
		}
		fmt.Fprintf(&b, "            default: %s;\n", s.Select.Default)
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n")
	for _, st := range s.States {
		fmt.Fprintf(&b, "    state %s { pkt.extract(hdr.%s); transition accept; }\n", st.Name, st.Header)
	}
	b.WriteString("}\n\n")

	b.WriteString("control FI(inout headers_t hdr, inout metadata_t meta,\n")
	b.WriteString("           inout standard_metadata_t standard_metadata) {\n")
	for _, a := range s.Actions {
		params := make([]string, len(a.Params))
		for i, pr := range a.Params {
			params[i] = fmt.Sprintf("bit<%d> %s", pr.Width, pr.Name)
		}
		fmt.Fprintf(&b, "    action %s(%s) {\n", a.Name, strings.Join(params, ", "))
		renderBody(&b, a.Body, "        ")
		b.WriteString("    }\n")
	}
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "    table %s {\n", t.Name)
		fmt.Fprintf(&b, "        key = { %s : %s; }\n", t.Key, t.KeyKind)
		fmt.Fprintf(&b, "        actions = { %s; }\n", strings.Join(t.Actions, "; "))
		fmt.Fprintf(&b, "        default_action = %s;\n", renderCall(t.Default))
		if len(t.Entries) > 0 {
			b.WriteString("        const entries = {\n")
			for _, e := range t.Entries {
				switch {
				case e.Wildcard:
					fmt.Fprintf(&b, "            _ : %s;\n", renderCall(e.Call))
				case e.Mask != 0:
					fmt.Fprintf(&b, "            %d &&& %d : %s;\n", e.Value, e.Mask, renderCall(e.Call))
				default:
					fmt.Fprintf(&b, "            %d : %s;\n", e.Value, renderCall(e.Call))
				}
			}
			b.WriteString("        }\n")
		}
		b.WriteString("    }\n")
	}
	b.WriteString("    apply {\n")
	renderBody(&b, s.Apply, "        ")
	b.WriteString("    }\n}\n\n")

	b.WriteString("control FD(packet_out pkt, in headers_t hdr) {\n    apply {\n")
	for _, h := range s.Emits {
		fmt.Fprintf(&b, "        pkt.emit(hdr.%s);\n", h)
	}
	b.WriteString("    }\n}\n\nV1Switch(FP, FI, FD) main;\n")
	return b.String()
}

func renderCall(c ActionCall) string {
	if c.Name == "NoAction" {
		return "NoAction"
	}
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = fmt.Sprintf("%d", a)
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(args, ", "))
}

// ------------------------------------------------------------- generator --

// fieldRef is an addressable scalar in generated expressions.
type fieldRef struct {
	path  string
	width int
}

type gen struct {
	r    *rand.Rand
	spec *Spec
	// refs are the always-addressable scalars (header fields, metadata,
	// standard_metadata.egress_spec).
	refs []fieldRef
	// hdrRefs are header fields only, per header.
	hdrRefs map[string][]fieldRef
	// metaRefs are metadata fields only (targets for constant() asserts).
	metaRefs []fieldRef
	asserts  int
}

// Generate produces the fuzz program for a seed. Same seed, same program.
func Generate(seed uint64) *Program {
	g := &gen{
		r:       rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		spec:    &Spec{},
		hdrRefs: map[string][]fieldRef{},
	}
	g.genHeaders()
	g.genMeta()
	g.genParser()
	g.genActions()
	g.genTables()
	g.genApply()
	g.genEmits()
	g.genRules()
	return &Program{Seed: seed, Spec: g.spec}
}

func (g *gen) intn(n int) int        { return int(g.r.Uint64N(uint64(n))) }
func (g *gen) chance(p float64) bool { return g.r.Float64() < p }
func (g *gen) width() int            { return widths[g.intn(len(widths))] }

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// lit draws a literal biased toward small values and boundary patterns, so
// generated comparisons are satisfiable (and violable) often.
func (g *gen) lit(w int) uint64 {
	switch g.intn(4) {
	case 0:
		return uint64(g.intn(4)) & mask(w)
	case 1:
		return g.r.Uint64() & mask(w)
	case 2:
		return mask(w)
	default:
		return uint64(g.intn(256)) & mask(w)
	}
}

func (g *gen) pick(refs []fieldRef) fieldRef { return refs[g.intn(len(refs))] }

func (g *gen) genHeaders() {
	nh := 1 + g.intn(3)
	for i := 0; i < nh; i++ {
		h := HeaderSpec{Name: fmt.Sprintf("h%d", i)}
		nf := 1 + g.intn(3)
		for j := 0; j < nf; j++ {
			f := FieldSpec{Name: fmt.Sprintf("f%d", j), Width: g.width()}
			h.Fields = append(h.Fields, f)
			ref := fieldRef{path: fmt.Sprintf("hdr.%s.%s", h.Name, f.Name), width: f.Width}
			g.refs = append(g.refs, ref)
			g.hdrRefs[h.Name] = append(g.hdrRefs[h.Name], ref)
		}
		g.spec.Headers = append(g.spec.Headers, h)
	}
}

func (g *gen) genMeta() {
	nm := 1 + g.intn(3)
	for i := 0; i < nm; i++ {
		f := FieldSpec{Name: fmt.Sprintf("m%d", i), Width: g.width()}
		g.spec.Meta = append(g.spec.Meta, f)
		ref := fieldRef{path: "meta." + f.Name, width: f.Width}
		g.refs = append(g.refs, ref)
		g.metaRefs = append(g.metaRefs, ref)
	}
	g.refs = append(g.refs, fieldRef{path: "standard_metadata.egress_spec", width: 9})
}

// genParser builds the start state and, when more than one header exists, a
// select transition dispatching to states extracting the other headers.
func (g *gen) genParser() {
	if len(g.spec.Headers) == 1 || g.chance(0.15) {
		return // straight accept
	}
	key := g.pick(g.hdrRefs[g.spec.Headers[0].Name])
	sel := &SelectSpec{Key: key.path}
	seen := map[uint64]bool{}
	for i := 1; i < len(g.spec.Headers); i++ {
		v := g.lit(key.width)
		if seen[v] {
			continue // duplicate case values are rejected upstream
		}
		seen[v] = true
		st := StateSpec{Name: fmt.Sprintf("parse_h%d", i), Header: g.spec.Headers[i].Name}
		g.spec.States = append(g.spec.States, st)
		sel.Cases = append(sel.Cases, SelectCase{Value: v, Target: st.Name})
	}
	switch g.intn(3) {
	case 0:
		sel.Default = "reject"
	default:
		sel.Default = "accept"
	}
	g.spec.Select = sel
}

// expr produces a well-typed bit<w> expression over scope, depth-bounded.
func (g *gen) expr(w, depth int, scope []fieldRef) string {
	if depth <= 0 || g.chance(0.4) {
		// Leaf: literal, same-width reference, or cast reference.
		if g.chance(0.4) {
			return fmt.Sprintf("%d", g.lit(w))
		}
		var same []fieldRef
		for _, r := range scope {
			if r.width == w {
				same = append(same, r)
			}
		}
		if len(same) > 0 && g.chance(0.7) {
			return g.pick(same).path
		}
		r := g.pick(scope)
		if r.width == w {
			return r.path
		}
		return fmt.Sprintf("(bit<%d>)%s", w, r.path)
	}
	switch g.intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.expr(w, depth-1, scope), g.expr(w, depth-1, scope))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.expr(w, depth-1, scope), g.expr(w, depth-1, scope))
	case 2:
		return fmt.Sprintf("(%s & %s)", g.expr(w, depth-1, scope), g.expr(w, depth-1, scope))
	case 3:
		return fmt.Sprintf("(%s | %s)", g.expr(w, depth-1, scope), g.expr(w, depth-1, scope))
	case 4:
		return fmt.Sprintf("(%s ^ %s)", g.expr(w, depth-1, scope), g.expr(w, depth-1, scope))
	case 5:
		return fmt.Sprintf("(~%s)", g.expr(w, depth-1, scope))
	default:
		if w > 1 {
			return fmt.Sprintf("(%s >> %d)", g.expr(w, depth-1, scope), 1+g.intn(w-1))
		}
		return fmt.Sprintf("(%s ^ %s)", g.expr(w, depth-1, scope), g.expr(w, depth-1, scope))
	}
}

var cmpOps = []string{"==", "!=", "<", "<=", ">", ">="}

// cond produces a boolean expression for if conditions and assumes.
func (g *gen) cond(depth int, scope []fieldRef) string {
	if depth <= 0 || g.chance(0.5) {
		r := g.pick(scope)
		op := cmpOps[g.intn(len(cmpOps))]
		if g.chance(0.8) {
			return fmt.Sprintf("%s %s %d", r.path, op, g.lit(r.width))
		}
		return fmt.Sprintf("%s %s (bit<%d>)%s", r.path, op, r.width, g.pick(scope).path)
	}
	switch g.intn(3) {
	case 0:
		return fmt.Sprintf("(%s && %s)", g.cond(depth-1, scope), g.cond(depth-1, scope))
	case 1:
		return fmt.Sprintf("(%s || %s)", g.cond(depth-1, scope), g.cond(depth-1, scope))
	default:
		return fmt.Sprintf("!(%s)", g.cond(depth-1, scope))
	}
}

// assertText draws an assertion from the paper's Figure 4 idiom templates.
func (g *gen) assertText() string {
	g.asserts++
	r := g.pick(g.refs)
	op := cmpOps[g.intn(len(cmpOps))]
	base := fmt.Sprintf("%s %s %d", r.path, op, g.lit(r.width))
	switch g.intn(7) {
	case 0:
		return base
	case 1:
		r2 := g.pick(g.refs)
		return fmt.Sprintf("if(%s, %s %s %d)", base, r2.path, cmpOps[g.intn(len(cmpOps))], g.lit(r2.width))
	case 2:
		return fmt.Sprintf("if(%s, forward())", base)
	case 3:
		return fmt.Sprintf("if(%s, !forward())", base)
	case 4:
		return fmt.Sprintf("if(forward(), %s)", base)
	case 5:
		if len(g.metaRefs) > 0 {
			return fmt.Sprintf("constant(%s)", g.pick(g.metaRefs).path)
		}
		return base
	default:
		h := g.spec.Headers[g.intn(len(g.spec.Headers))].Name
		return fmt.Sprintf("if(extract_header(hdr.%s), emit_header(hdr.%s))", h, h)
	}
}

// genActions emits 1-3 actions; the first always steers the egress port so
// forward()-based assertions have observable behaviour to talk about.
func (g *gen) genActions() {
	na := 1 + g.intn(3)
	for i := 0; i < na; i++ {
		a := ActionSpec{Name: fmt.Sprintf("a%d", i)}
		np := g.intn(3)
		scope := append([]fieldRef(nil), g.refs...)
		for j := 0; j < np; j++ {
			p := FieldSpec{Name: fmt.Sprintf("p%d", j), Width: g.width()}
			a.Params = append(a.Params, p)
			scope = append(scope, fieldRef{path: p.Name, width: p.Width})
		}
		if i == 0 {
			a.Body = append(a.Body, &AssignStmt{
				LHS: "standard_metadata.egress_spec",
				RHS: g.expr(9, 1, scope),
			})
		}
		nb := g.intn(3)
		for j := 0; j < nb; j++ {
			tgt := g.pick(g.refs) // header/meta fields and egress
			a.Body = append(a.Body, &AssignStmt{LHS: tgt.path, RHS: g.expr(tgt.width, 2, scope)})
		}
		if i > 0 && g.chance(0.3) {
			a.Body = append(a.Body, &DropStmt{})
		}
		g.spec.Actions = append(g.spec.Actions, a)
	}
}

func (g *gen) genTables() {
	nt := 1 + g.intn(2)
	for i := 0; i < nt; i++ {
		key := g.pick(g.refs)
		t := TableSpec{
			Name:    fmt.Sprintf("t%d", i),
			Key:     key.path,
			KeyKind: "exact",
		}
		if g.chance(0.35) {
			t.KeyKind = "ternary"
		}
		// Random non-empty action subset, plus NoAction.
		for _, a := range g.spec.Actions {
			if g.chance(0.7) {
				t.Actions = append(t.Actions, a.Name)
			}
		}
		if len(t.Actions) == 0 {
			t.Actions = append(t.Actions, g.spec.Actions[g.intn(len(g.spec.Actions))].Name)
		}
		t.Actions = append(t.Actions, "NoAction")
		t.Default = g.actionCall(t.Actions[g.intn(len(t.Actions))])
		// Const entries pin the table's behaviour (and make hit/miss
		// concrete); tables without them stay control-plane-symbolic.
		if g.chance(0.4) {
			ne := 1 + g.intn(3)
			for j := 0; j < ne; j++ {
				e := EntrySpec{Call: g.actionCall(t.Actions[g.intn(len(t.Actions))])}
				e.Value = g.lit(key.width)
				if t.KeyKind == "ternary" {
					switch g.intn(3) {
					case 0:
						e.Mask = g.lit(key.width)
						if e.Mask == 0 {
							e.Mask = mask(key.width)
						}
						e.Value &= e.Mask
					case 1:
						if j == ne-1 {
							e.Wildcard = true
						}
					}
				}
				t.Entries = append(t.Entries, e)
			}
		}
		g.spec.Tables = append(g.spec.Tables, t)
	}
}

func (g *gen) actionCall(name string) ActionCall {
	c := ActionCall{Name: name}
	if name == "NoAction" {
		return c
	}
	for _, a := range g.spec.Actions {
		if a.Name == name {
			for _, p := range a.Params {
				c.Args = append(c.Args, g.lit(p.Width))
			}
		}
	}
	return c
}

// genApply builds the ingress apply block: one apply per table (sometimes
// guarded or hit-branched), interleaved with assignments, conditionals,
// equality cascades (the -O3 chain-compaction trigger), assumes and
// assertions.
func (g *gen) genApply() {
	var stmts []Stmt
	for _, t := range g.spec.Tables {
		ap := &ApplyStmt{Table: t.Name}
		if g.chance(0.25) {
			ap.Hit = true
			ap.HitThen = []Stmt{g.assignStmt()}
			if g.chance(0.5) {
				ap.HitElse = []Stmt{g.assignStmt()}
			}
		}
		if g.chance(0.25) {
			stmts = append(stmts, &IfStmt{Cond: g.cond(1, g.refs), Then: []Stmt{ap}})
		} else {
			stmts = append(stmts, ap)
		}
	}
	nFill := 1 + g.intn(3)
	for i := 0; i < nFill; i++ {
		stmts = append(stmts, g.fillerStmt())
	}
	nAssert := 1 + g.intn(3)
	for i := 0; i < nAssert; i++ {
		stmts = append(stmts, &AssertStmt{Text: g.assertText()})
	}
	if g.chance(0.15) {
		stmts = append(stmts, &AssumeStmt{Cond: g.cond(1, g.refs)})
	}
	g.r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	g.spec.Apply = stmts
}

func (g *gen) assignStmt() Stmt {
	tgt := g.pick(g.refs)
	return &AssignStmt{LHS: tgt.path, RHS: g.expr(tgt.width, 2, g.refs)}
}

func (g *gen) fillerStmt() Stmt {
	switch g.intn(5) {
	case 0:
		// Same-key equality cascade of length >= 3: the shape -O3's
		// chain-compaction rewrites into an assume-guarded fork. Needs a
		// key wide enough to supply the distinct case constants.
		var wide []fieldRef
		for _, r := range g.refs {
			if r.width >= 3 {
				wide = append(wide, r)
			}
		}
		key := g.pick(wide) // non-empty: egress_spec is width 9
		seen := map[uint64]bool{}
		var root *IfStmt
		var curr *IfStmt
		n := 3 + g.intn(2)
		for i := 0; i < n; i++ {
			v := g.lit(key.width)
			for seen[v] {
				v = (v + 1) & mask(key.width)
			}
			seen[v] = true
			next := &IfStmt{
				Cond: fmt.Sprintf("%s == %d", key.path, v),
				Then: []Stmt{g.assignStmt()},
			}
			if root == nil {
				root, curr = next, next
			} else {
				curr.Else = []Stmt{next}
				curr = next
			}
		}
		curr.Else = []Stmt{g.assignStmt()}
		return root
	case 1:
		then := []Stmt{g.assignStmt()}
		if g.chance(0.4) {
			then = append(then, &AssertStmt{Text: g.assertText()})
		}
		st := &IfStmt{Cond: g.cond(2, g.refs), Then: then}
		if g.chance(0.5) {
			st.Else = []Stmt{g.assignStmt()}
		}
		return st
	case 2:
		return &IfStmt{Cond: g.cond(1, g.refs), Then: []Stmt{&DropStmt{}}}
	default:
		return g.assignStmt()
	}
}

func (g *gen) genEmits() {
	for _, h := range g.spec.Headers {
		if g.chance(0.85) {
			g.spec.Emits = append(g.spec.Emits, h.Name)
		}
	}
}

// genRules emits a control-plane configuration for the symbolic tables
// (those without const entries): the metamorphic rules-oracle checks that
// every violation found under this concrete configuration is also found by
// the fully symbolic run.
func (g *gen) genRules() {
	if g.chance(0.4) {
		return
	}
	for _, t := range g.spec.Tables {
		if len(t.Entries) > 0 || g.chance(0.3) {
			continue
		}
		keyW := g.refWidth(t.Key)
		nr := 1 + g.intn(3)
		for i := 0; i < nr; i++ {
			an := t.Actions[g.intn(len(t.Actions))]
			var m string
			switch {
			case t.KeyKind == "ternary" && g.chance(0.3):
				m = "*"
			case t.KeyKind == "ternary" && g.chance(0.5):
				m = fmt.Sprintf("0x%x&0x%x", g.lit(keyW), g.lit(keyW))
			default:
				m = fmt.Sprintf("0x%x", g.lit(keyW))
			}
			line := fmt.Sprintf("%s %s %s", t.Name, an, m)
			if args := g.actionCall(an).Args; len(args) > 0 {
				parts := make([]string, len(args))
				for j, a := range args {
					parts[j] = fmt.Sprintf("0x%x", a)
				}
				line += " => " + strings.Join(parts, " ")
			}
			g.spec.RuleLines = append(g.spec.RuleLines, line)
		}
	}
}

func (g *gen) refWidth(path string) int {
	for _, r := range g.refs {
		if r.path == path {
			return r.width
		}
	}
	return 8
}
