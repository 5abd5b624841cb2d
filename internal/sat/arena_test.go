package sat

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// checkArena verifies the references into the clause arena while the
// solver is at rest (between calls): every watcher and binary watcher
// points at a live clause that watches that literal, every live clause is
// watched exactly twice, every non-zero reason is a live clause implying
// its variable's assignment, and the arena's words add up.
func checkArena(s *Solver) error {
	live := map[cref]bool{}
	words := 1 // the padding word at offset 0
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			if c == crefUndef || int(c)+hdrWords > len(s.arena) {
				return fmt.Errorf("clause ref %d outside the arena (%d words)", c, len(s.arena))
			}
			if live[c] {
				return fmt.Errorf("clause %d listed twice", c)
			}
			n := s.size(c)
			if n < 2 || int(c)+hdrWords+n > len(s.arena) {
				return fmt.Errorf("clause %d: bad size %d", c, n)
			}
			live[c] = true
			words += hdrWords + n
		}
	}
	if words+s.wasted != len(s.arena) {
		return fmt.Errorf("arena has %d words, live clauses %d + wasted %d", len(s.arena), words, s.wasted)
	}
	watched := map[cref]int{}
	for p := range s.watches {
		falsified := Lit(p).Not()
		for _, w := range s.watches[p] {
			if !live[w.c] {
				return fmt.Errorf("watcher of %v points at dead clause %d", Lit(p), w.c)
			}
			lits := s.lits(w.c)
			if len(lits) == 2 || (lits[0] != falsified && lits[1] != falsified) {
				return fmt.Errorf("watcher of %v on clause %d %v", Lit(p), w.c, lits)
			}
			watched[w.c]++
		}
		for _, bw := range s.binWatches[p] {
			if !live[bw.c] {
				return fmt.Errorf("binary watcher of %v points at dead clause %d", Lit(p), bw.c)
			}
			lits := s.lits(bw.c)
			if len(lits) != 2 || !(lits[0] == falsified && lits[1] == bw.other ||
				lits[1] == falsified && lits[0] == bw.other) {
				return fmt.Errorf("binary watcher of %v (other %v) on clause %d %v", Lit(p), bw.other, bw.c, lits)
			}
			watched[bw.c]++
		}
	}
	for c := range live {
		if watched[c] != 2 {
			return fmt.Errorf("clause %d %v watched %d times", c, s.lits(c), watched[c])
		}
	}
	for v, r := range s.reason {
		if r == crefUndef {
			continue
		}
		if !live[r] {
			return fmt.Errorf("reason of var %d is dead clause %d", v, r)
		}
		lits := s.lits(r)
		// propagate keeps a long clause's implied literal first; a binary
		// clause implies either literal in place.
		implied := lits[0]
		if len(lits) == 2 && lits[1].Var() == v {
			implied = lits[1]
		}
		if implied.Var() != v || s.value(implied) != lTrue {
			return fmt.Errorf("reason %d %v of var %d does not imply it", r, lits, v)
		}
		for _, q := range lits {
			if q != implied && s.value(q) != lFalse {
				return fmt.Errorf("reason %d %v of var %d has non-false literal %v", r, lits, v, q)
			}
		}
	}
	return nil
}

// TestArenaCompaction forces compactions — during the search (a tiny
// learnt-DB cap makes reduceDB run every few conflicts), by reduceDB over
// a full satisfying trail, and by PruneLearnts — and checks the arena's
// references after each, then compares every answer with a fresh solver.
func TestArenaCompaction(t *testing.T) {
	frames := [2][]Lit{
		{MkLit(0, false), MkLit(1, true), MkLit(2, false)},
		{MkLit(0, true), MkLit(3, false)},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nVars = 150
		cls := randomCNF(rng, nVars, 595, 3)
		s := New(nVars)
		for _, c := range cls {
			s.AddClause(c...)
		}
		s.learntCap = 100
		shrank := 0
		for call := 0; call < 6; call++ {
			as := frames[call%2]
			got := s.SolveAssume(Limits{}, as...)
			if err := checkArena(s); err != nil {
				t.Fatalf("seed %d call %d after solve: %v", seed, call, err)
			}
			if got == Sat && !modelSatisfies(s.ModelSlice(), cls) {
				t.Fatalf("seed %d call %d: model violates the formula", seed, call)
			}
			before := len(s.arena)
			if got == Sat {
				s.reduceDB()
			} else {
				s.PruneLearnts(0, 0)
			}
			if len(s.arena) < before {
				shrank++
			}
			if err := checkArena(s); err != nil {
				t.Fatalf("seed %d call %d after prune: %v", seed, call, err)
			}

			fresh := New(nVars)
			for _, c := range cls {
				fresh.AddClause(c...)
			}
			for _, a := range as {
				fresh.AddClause(a)
			}
			if want := fresh.Solve(Limits{}); got != want {
				t.Fatalf("seed %d call %d: compacted solver %v, fresh %v", seed, call, got, want)
			}
		}
		if s.Stats().Reductions == 0 || shrank == 0 {
			t.Fatalf("seed %d: %d reductions, %d shrinking compactions; the test must compact",
				seed, s.Stats().Reductions, shrank)
		}
	}
}

// TestConflictLoopAllocs: once its buffers and watch lists have grown to
// their working size, the conflict loop allocates (almost) nothing — the
// learnt clause goes into the arena, analyze reuses its scratch buffers.
// What remains is amortized growth and the rare reduceDB.
func TestConflictLoopAllocs(t *testing.T) {
	s := pigeonhole(9, 8) // php-8: Unsat after about 22k conflicts
	s.Solve(Limits{MaxConflicts: 2000})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st := s.Solve(Limits{MaxConflicts: 22000})
	runtime.ReadMemStats(&m1)
	if st != Unknown {
		t.Fatalf("php-8 decided (%v) inside the measured window", st)
	}
	conflicts := s.Stats().Conflicts - 2000
	perConflict := float64(m1.Mallocs-m0.Mallocs) / float64(conflicts)
	t.Logf("%d conflicts, %d allocations, %.3f per conflict", conflicts, m1.Mallocs-m0.Mallocs, perConflict)
	if perConflict >= 0.5 {
		t.Fatalf("%.3f heap allocations per conflict, want < 0.5", perConflict)
	}
}
