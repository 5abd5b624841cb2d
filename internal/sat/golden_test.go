package sat

import (
	"math/rand"
	"testing"
)

// TestSearchEffortGolden pins the exact search the solver makes, not only
// its answers: the effort counters below (decisions, conflicts,
// propagations, learnt and removed clauses, reductions) must repeat to the
// unit. A change to the clause store, the watch lists or the learnt-DB
// bookkeeping that alters a single search step shows here, even when every
// answer stays right. Only a deliberate change to the search heuristics
// re-records these numbers, and says so.
func TestSearchEffortGolden(t *testing.T) {
	cases := []struct {
		name   string
		run    func() ([]Status, Stats)
		status []Status
		want   Stats
	}{
		{
			name: "php-7",
			run: func() ([]Status, Stats) {
				s := pigeonhole(8, 7)
				return []Status{s.Solve(Limits{})}, s.Stats()
			},
			status: []Status{Unsat},
			want: Stats{Decisions: 5467, Conflicts: 4559, Propagations: 62783, Restarts: 17,
				Learnts: 4556, LBDSum: 50000},
		},
		{
			name:   "3sat-assume-seed1",
			run:    func() ([]Status, Stats) { return alternatingAssumeRun(1) },
			status: []Status{Unsat, Sat, Unsat, Sat, Unsat, Sat},
			want: Stats{Decisions: 3740, Conflicts: 3029, Propagations: 98644, Restarts: 15,
				Learnts: 3029, Removed: 2684, Reductions: 4, LBDSum: 22773},
		},
		{
			name:   "3sat-assume-seed2",
			run:    func() ([]Status, Stats) { return alternatingAssumeRun(2) },
			status: []Status{Sat, Sat, Sat, Sat, Sat, Sat},
			want: Stats{Decisions: 2831, Conflicts: 2246, Propagations: 76008, Restarts: 9,
				Learnts: 2246, Removed: 1949, Reductions: 6, LBDSum: 15970},
		},
		{
			name:   "3sat-assume-seed3",
			run:    func() ([]Status, Stats) { return alternatingAssumeRun(3) },
			status: []Status{Sat, Unsat, Sat, Unsat, Sat, Unsat},
			want: Stats{Decisions: 2069, Conflicts: 1682, Propagations: 54035, Restarts: 10,
				Learnts: 1682, Removed: 1413, Reductions: 3, LBDSum: 11226},
		},
		{
			// Long enough to cross the learnt-DB cap, so reduceDB runs.
			name: "php-9-reduce",
			run: func() ([]Status, Stats) {
				s := pigeonhole(10, 9)
				return []Status{s.Solve(Limits{MaxConflicts: 30000})}, s.Stats()
			},
			status: []Status{Unknown},
			want: Stats{Decisions: 36521, Conflicts: 30000, Propagations: 393223, Restarts: 84,
				Learnts: 30000, Removed: 21838, Reductions: 5, LBDSum: 683033},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, got := tc.run()
			if len(status) != len(tc.status) {
				t.Fatalf("%d calls, want %d", len(status), len(tc.status))
			}
			for i := range status {
				if status[i] != tc.status[i] {
					t.Fatalf("call %d: %v, want %v", i, status[i], tc.status[i])
				}
			}
			if got != tc.want {
				t.Fatalf("search effort changed:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// alternatingAssumeRun solves one seeded random 3-SAT instance near the
// phase transition six times, alternating between two assumption sets,
// and prunes the learnt DB between calls as the shared solver pool does
// on a frame switch.
func alternatingAssumeRun(seed int64) ([]Status, Stats) {
	rng := rand.New(rand.NewSource(seed))
	const nVars = 150
	s := New(nVars)
	for _, c := range randomCNF(rng, nVars, 595, 3) {
		s.AddClause(c...)
	}
	frames := [2][]Lit{
		{MkLit(0, false), MkLit(1, true), MkLit(2, false)},
		{MkLit(0, true), MkLit(3, false)},
	}
	var status []Status
	for call := 0; call < 6; call++ {
		status = append(status, s.SolveAssume(Limits{}, frames[call%2]...))
		s.PruneLearnts(4, 12)
	}
	return status, s.Stats()
}
