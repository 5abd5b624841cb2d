package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
)

// randomRawCover draws a random cover over n inputs with up to k cubes
// (contradictory draws are skipped, so the cover may come out smaller).
func randomRawCover(rng *rand.Rand, n, k int) cube.Cover {
	raw := cube.Zero(n)
	for i := 0; i < k; i++ {
		var c cube.Cube
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				c = c.WithPos(v)
			case 1:
				c = c.WithNeg(v)
			}
		}
		if c.NumLiterals() > 0 {
			raw.Cubes = append(raw.Cubes, c)
		}
	}
	return raw
}

// cegarReference is the equivalence tests' reference answer: the
// per-candidate CEGAR engine on every step, so the reference never
// touches the shared pool the tests check.
func cegarReference(t *testing.T, trial int, raw cube.Cover) Result {
	t.Helper()
	r, err := Synthesize(raw, Options{EngineSelect: EngineFresh, Encode: encode.Options{CEGAR: true}})
	if err != nil {
		t.Fatalf("trial %d (cegar): %v", trial, err)
	}
	if r.SharedSteps != 0 {
		t.Fatalf("trial %d: reference ran %d shared steps", trial, r.SharedSteps)
	}
	return r
}

// TestSharedSearchMatchesCegar is the equivalence property test: on ≥200
// random covers of up to 6 inputs, the dichotomic search over the shared
// assumption-based solver must return the same minimum lattice size as
// the per-candidate CEGAR engine, with a verified assignment. This is
// the strong form of equivalence — both engines are definitive per
// candidate (Unsat is a relaxation proof, Sat is verified by
// simulation), so the whole search trajectory must agree.
func TestSharedSearchMatchesCegar(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(4) // 3..6 inputs
		raw := randomRawCover(rng, n, 2+rng.Intn(3))
		if len(raw.Cubes) == 0 {
			continue
		}
		checked++
		base := cegarReference(t, trial, raw)
		shared, err := Synthesize(raw, Options{EngineSelect: EngineShared})
		if err != nil {
			t.Fatalf("trial %d (shared): %v", trial, err)
		}
		if base.Size != shared.Size {
			t.Fatalf("trial %d: cegar size %d (grid %v) vs shared size %d (grid %v) for %v",
				trial, base.Size, base.Grid, shared.Size, shared.Grid, raw)
		}
		if shared.Assignment == nil || !shared.Assignment.Realizes(shared.ISOP) {
			t.Fatalf("trial %d: shared answer unverified", trial)
		}
	}
	if checked < trials*9/10 {
		t.Fatalf("only %d/%d trials exercised", checked, trials)
	}
}

// TestSharedSearchWorkers exercises the shared solver under Workers>1:
// the parallel candidate path funnels concurrent goroutines into the
// per-engine mutex, which under -race is the regression test for the
// pool. The answer must match the sequential shared run.
func TestSharedSearchWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		raw := randomRawCover(rng, 4, 3)
		if len(raw.Cubes) == 0 {
			continue
		}
		seq, err := Synthesize(raw, Options{EngineSelect: EngineShared})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Synthesize(raw, Options{EngineSelect: EngineShared, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Size != par.Size {
			t.Fatalf("trial %d: sequential %d vs workers %d", trial, seq.Size, par.Size)
		}
		if par.Assignment == nil || !par.Assignment.Realizes(par.ISOP) {
			t.Fatalf("trial %d: parallel shared answer unverified", trial)
		}
	}

	// And two whole syntheses in parallel, each with Workers>1, each with
	// its own pool: the engines must never cross streams.
	var wg sync.WaitGroup
	var errs [2]error
	var sizes [2]int
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := randomRawCover(rand.New(rand.NewSource(88)), 4, 3)
			r, err := Synthesize(f, Options{EngineSelect: EngineShared, Workers: 3})
			errs[i], sizes[i] = err, r.Size
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("identical inputs diverged: %d vs %d", sizes[0], sizes[1])
	}
}

// TestSharedCountersThreaded: the shared-solver counters must climb all
// the way into core.Result — reuse requires a search that revisits a
// shape, which the dichotomic descent over a multi-product function does.
func TestSharedCountersThreaded(t *testing.T) {
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	r, err := Synthesize(f, Options{EngineSelect: EngineShared})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 8 {
		t.Fatalf("fig1 size = %d, want 8", r.Size)
	}
	if r.StampedClauses == 0 {
		t.Fatalf("no stamped clauses recorded: %+v", r)
	}
	if r.ClausesAdded != r.StampedClauses {
		t.Fatalf("shared run: added=%d stamped=%d must agree", r.ClausesAdded, r.StampedClauses)
	}
}

// TestSharedFilteredSearchMatchesCegar pins the soundness of the clause
// quality filter: with the counterexample transfer cap and the learnt
// prune forced to their most aggressive settings, the shared-pool search
// must still return the same minimum lattice size as the per-candidate
// CEGAR engine on ≥200 random covers. The filter may only drop clauses a
// skeleton would re-derive — a skeleton holding a subset of the engine's
// counterexample entries is a coarser relaxation of the same LM problem,
// so Unsat answers stay definitive and Sat answers are still verified by
// simulation. A divergence here means the filter broke that invariant.
func TestSharedFilteredSearchMatchesCegar(t *testing.T) {
	rng := rand.New(rand.NewSource(2424))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(4) // 3..6 inputs
		raw := randomRawCover(rng, n, 2+rng.Intn(3))
		if len(raw.Cubes) == 0 {
			continue
		}
		checked++
		base := cegarReference(t, trial, raw)
		opt := Options{EngineSelect: EngineShared}
		opt.Encode.CEXTransferLimit = 1 // stamp at most one missing entry per reuse
		opt.Encode.SharedLearntLBD = 1  // prune all but the glue clauses
		opt.Encode.SharedLearntSize = 3
		filtered, err := Synthesize(raw, opt)
		if err != nil {
			t.Fatalf("trial %d (filtered shared): %v", trial, err)
		}
		if base.Size != filtered.Size {
			t.Fatalf("trial %d: cegar size %d (grid %v) vs filtered shared size %d (grid %v) for %v",
				trial, base.Size, base.Grid, filtered.Size, filtered.Grid, raw)
		}
		if filtered.Assignment == nil || !filtered.Assignment.Realizes(filtered.ISOP) {
			t.Fatalf("trial %d: filtered shared answer unverified", trial)
		}
	}
	if checked < trials*9/10 {
		t.Fatalf("only %d/%d trials exercised", checked, trials)
	}
}

// TestWarmedMixedSearchMatchesCegar forces the auto policy to flip from
// fresh to shared mid-search: the threshold is pinned just above the
// first step's depth score, so the first dichotomic step runs fresh and
// the depth growth from its solves flips later steps to a pool — which
// is then warmed from the fresh steps' counterexample trail
// (SharedPool.Warm). The auto side runs CEGAR so its fresh steps report
// counterexamples; monolithic steps report none and would leave the
// trail empty. Results must match the fresh engine exactly, and the
// sweep must actually warm a pool with a non-empty trail for the flip
// path to count as exercised.
func TestWarmedMixedSearchMatchesCegar(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	checked, warmed := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(4) // 3..6 inputs
		raw := randomRawCover(rng, n, 2+rng.Intn(3))
		if len(raw.Cubes) == 0 {
			continue
		}
		checked++
		base := cegarReference(t, trial, raw)
		// One depth unit above the first step's score: step one stays
		// fresh, and every LM solve it performs adds 4 to the score, so
		// any second step flips shared and triggers the mid-search warm.
		gap := base.NUB - base.LB
		prods := len(base.ISOP.Cubes) + len(base.DualISOP.Cubes)
		opt := Options{EngineSelect: EngineAuto,
			engineThreshold: predictDepth(gap, prods, 0) + 1}
		opt.Encode.CEGAR = true
		auto, err := Synthesize(raw, opt)
		if err != nil {
			t.Fatalf("trial %d (mixed auto): %v", trial, err)
		}
		if base.Size != auto.Size {
			t.Fatalf("trial %d: cegar size %d (grid %v) vs mixed size %d (grid %v) for %v",
				trial, base.Size, base.Grid, auto.Size, auto.Grid, raw)
		}
		if auto.Assignment == nil || !auto.Assignment.Realizes(auto.ISOP) {
			t.Fatalf("trial %d: mixed answer unverified", trial)
		}
		if auto.Engine == "mixed" && auto.warmTrail > 0 {
			warmed++
		}
	}
	if checked < trials*9/10 {
		t.Fatalf("only %d/%d trials exercised", checked, trials)
	}
	if warmed == 0 {
		t.Fatal("no trial warmed a mid-search pool with a non-empty trail; the warm path was never exercised")
	}
}
