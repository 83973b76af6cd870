package solver

// The full tier: fresh bit-blast and canonical model extraction.
//
// Each full query that misses the memo is blasted into a fresh sat.Solver
// — the canonical conjuncts, in canonical order — and solved once. On SAT
// the solver's model is refined into the unique lexicographically-minimal
// model over the canonical variable order (extractCanonical). That
// uniqueness is what keeps reports byte-identical in every configuration:
// the verdict is a property of the formula, and the witness is a property
// of the formula and the canonical order, not of the solver's search. A
// memo hit replays the same witness through the variable bijection (see
// canon.go), so memo on and memo off agree too.
//
// The comparable BitblastVars/Clauses counters are the CNF size of that
// fresh blast: a pure function of the query, replayed by the memo.
//
// A fresh solver per query is enough because P4 path conditions are
// shallow (the paper's observation about KLEE's queries): CDCL search on
// the corpus records no conflicts, so a long-lived incremental solver
// would have no learned clauses to reuse.

import (
	"p4assert/internal/bitblast"
	"p4assert/internal/sat"
)

// solveFull decides one full (layer 3) query from scratch and returns it
// as the memo entry that replays it.
func (c *Checker) solveFull(cq *canonQuery) *memoEntry {
	s := sat.New()
	bl := bitblast.New(s)
	for _, e := range cq.conjs {
		bl.AssertTrue(e)
	}
	e := &memoEntry{vars: int64(s.NumVars()), clauses: int64(s.NumClauses())}
	if s.Solve() {
		e.sat = true
		e.model = extractCanonical(s, bl, cq)
	}
	d, p, cf := s.Stats()
	a := &c.Stats.Accel
	a.Decisions += d
	a.Propagations += p
	a.Conflicts += cf
	a.LearnedClauses += s.Learned()
	return e
}

// extractCanonical refines the solver's current model into the unique
// lexicographically-minimal one over (canonical variable order, MSB-first
// bits), returned by canonical variable index: for each bit in that order
// it fixes 0 when the current model already has 0, and otherwise asks the
// solver, under the bits fixed so far as assumptions, whether 0 is still
// consistent. The solver has no conflict budget, so every solve is
// definitive.
func extractCanonical(s *sat.Solver, bl *bitblast.Blaster, cq *canonQuery) []uint64 {
	vals := make([]uint64, len(cq.varOrder))
	read := func() {
		for i, name := range cq.varOrder {
			vals[i] = bl.VarValue(name)
		}
	}
	read()
	var fix []sat.Lit
	for vi, name := range cq.varOrder {
		bits := bl.VarBits(name)
		for i := len(bits) - 1; i >= 0; i-- {
			fix = append(fix, bits[i].Not())
			if vals[vi]>>uint(i)&1 == 0 {
				continue
			}
			if s.SolveAssuming(fix...) {
				read()
			} else {
				fix[len(fix)-1] = bits[i]
			}
		}
	}
	return vals
}
