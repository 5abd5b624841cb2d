package encode

import (
	"fmt"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/sat"
	"github.com/lattice-tools/janus/internal/truth"
)

// SolveLMCegar decides the LM problem by counterexample-guided
// abstraction refinement, the lazy view of the exact method's quantified
// formulation: ∃ mapping ∀ inputs (lattice = f).
//
// Instead of constraining all 2^N truth-table entries up front, the
// abstraction starts from a small seed, a candidate mapping is decoded
// and *simulated* against the full truth table (cheap — one BFS per
// point), and any mismatching input becomes a new constrained entry. An
// UNSAT abstraction proves the full problem UNSAT because the
// abstraction is a relaxation; a verified candidate is a genuine
// solution. Each refinement adds at least one new entry, so the loop
// terminates. On the paper's instances the loop typically converges
// after a few dozen entries instead of the full 2^N.
func SolveLMCegar(target, targetDual cube.Cover, g lattice.Grid, opt Options) (Result, error) {
	if target.N > MaxInputs {
		return Result{}, ErrTooManyInputs
	}
	if target.IsZero() || target.IsOne() {
		return SolveLM(target, targetDual, g, opt)
	}
	if !StructuralCheck(target, targetDual, g) {
		mStructural.Inc()
		return Result{Status: sat.Unsat, Structural: true}, nil
	}

	// Orientation choice: per-entry work is proportional to the path
	// count, so prefer the sparser structure; skip oversized ones (the
	// CEGAR loop can afford more than the monolithic cap because it only
	// materializes the entries it needs, but the path list itself must
	// still fit).
	const maxCegarPaths = 200000
	var attempts []cegarAttempt
	pw := g.CountPathsLimited(maxCegarPaths, false)
	dw := g.CountPathsLimited(maxCegarPaths, true)
	switch opt.Mode {
	case PrimalOnly:
		if pw <= maxCegarPaths {
			attempts = []cegarAttempt{{target, false}}
		}
	case DualOnly:
		if dw <= maxCegarPaths {
			attempts = []cegarAttempt{{targetDual, true}}
		}
	default:
		if dw < pw {
			attempts = append(attempts, cegarAttempt{targetDual, true})
			if pw <= maxCegarPaths {
				attempts = append(attempts, cegarAttempt{target, false})
			}
		} else {
			attempts = append(attempts, cegarAttempt{target, false})
			if dw <= maxCegarPaths {
				attempts = append(attempts, cegarAttempt{targetDual, true})
			}
		}
		kept := attempts[:0]
		for _, a := range attempts {
			w := pw
			if a.dual {
				w = dw
			}
			if w <= maxCegarPaths {
				kept = append(kept, a)
			}
		}
		attempts = kept
	}
	if len(attempts) == 0 {
		return Result{Status: sat.Unknown}, nil
	}

	targetTab := memo.TableOf(target)
	var deadline time.Time
	if opt.Limits.Timeout > 0 {
		deadline = time.Now().Add(opt.Limits.Timeout)
	}

	var res Result
	var inputs []uint64 // CEXInputs merged across both orientation attempts
	sawUnknown := false
	for _, a := range attempts {
		var r Result
		var err error
		if opt.Shared != nil {
			// One persistent assumption-based solver per (cover,
			// orientation), shared across every candidate grid the search
			// probes (see SharedPool).
			r, err = opt.Shared.solveShared(a.cover, target, targetTab, g, a.dual, opt, deadline)
		} else {
			r, err = cegarOne(a.cover, target, targetTab, g, a.dual, opt, deadline)
		}
		if err != nil {
			return r, err
		}
		inputs = append(inputs, r.CEXInputs...)
		res = r
		if r.Status == sat.Sat {
			r.CEXInputs = inputs
			return r, nil
		}
		if r.Status == sat.Unknown {
			sawUnknown = true
		}
	}
	if sawUnknown {
		res.Status = sat.Unknown
	}
	res.CEXInputs = inputs
	return res, nil
}

// cegarAttempt is one orientation of the CEGAR engine: the cover being
// encoded (f for the primal structure, f^D for the dual) plus the flag.
type cegarAttempt struct {
	cover cube.Cover
	dual  bool
}

// cegarOne runs the refinement loop for one orientation. enc is the cover
// being encoded (f or f^D); target/targetTab always describe f, which the
// decoded assignment must implement.
//
// The loop is incremental: the mapping/exactly-one skeleton is encoded
// once into a single persistent solver, and each counterexample appends
// only the new entry's Y-variables, link implications, and path clauses
// via Builder.FlushTo. The solver keeps its learnt clauses, variable
// activities, and saved phases between refinements, so later iterations
// start from everything the search already proved about the mapping
// variables instead of from scratch.
func cegarOne(enc, target cube.Cover, targetTab *truth.Table, g lattice.Grid,
	dual bool, opt Options, deadline time.Time) (Result, error) {
	encTab := memo.TableOf(enc)

	p := newProblem(enc, g, dual, opt)
	s := sat.New(p.b.NumVars())

	res := Result{UsedDual: dual}
	cand, setSpan := startCandidate(opt.Span, g, dual, "cegar", s)
	defer func() {
		noteStatus(cand, res)
		cand.End()
	}()

	seen := map[uint64]bool{}
	addEntry := func(t uint64) {
		if !seen[t] {
			seen[t] = true
			mCegarEntries.Inc()
			p.addEntry(t, encTab.Get(t), opt)
		}
	}
	// Seed: one on-entry and one off-entry of the encoded function give
	// the abstraction immediate traction.
	var sawOn, sawOff bool
	for t := uint64(0); t < encTab.Size() && (!sawOn || !sawOff); t++ {
		if encTab.Get(t) && !sawOn {
			sawOn = true
			addEntry(t)
		}
		if !encTab.Get(t) && !sawOff {
			sawOff = true
			addEntry(t)
		}
	}

	for {
		// Cooperative cancellation between solver calls: the solver checks
		// the same channel inside its search loop, this check just keeps
		// the refinement bookkeeping from starting another round.
		select {
		case <-opt.Limits.Interrupt:
			res.Status = sat.Unknown
			return res, nil
		default:
		}
		// Hand only the new skeleton/entry clauses to the solver; the
		// accumulated formula stays attached with its learnt clauses.
		iterSpan := cand.Child("CegarIter")
		iterSpan.SetInt("iter", int64(res.CegarIters))
		added := p.b.FlushTo(s)
		res.AddedClauses += added
		res.RebuiltClauses += p.b.NumClauses()
		res.CegarIters++
		mCegarIters.Inc()
		mClausesAdded.Add(int64(added))
		mClausesRebld.Add(int64(p.b.NumClauses()))
		iterSpan.SetInt("clauses_added", int64(added))
		iterSpan.SetInt("entries", int64(len(seen)))

		lims := opt.Limits
		if lims.MaxConflicts > 0 {
			// The per-call conflict budget is relative to the conflicts the
			// persistent solver has already spent in earlier iterations.
			lims.MaxConflicts += s.Stats().Conflicts
		}
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				res.Status = sat.Unknown
				iterSpan.SetStr("outcome", "deadline")
				iterSpan.End()
				return res, nil
			}
			lims.Timeout = remain
		}
		solveSpan := iterSpan.Child("SatSolve")
		setSpan(solveSpan)
		st := s.Solve(lims)
		solveSpan.End()
		res.Status = st
		res.Vars = p.b.NumVars()
		res.Clauses = p.b.NumClauses()
		res.SolverStat = s.Stats()
		if st != sat.Sat {
			iterSpan.SetStr("outcome", st.String())
			iterSpan.End()
			return res, nil // Unsat is definitive (relaxation); Unknown is a budget
		}
		decoded := p.decode(s)
		// Verify the candidate against the real target by simulation.
		cex, ok := findMismatch(decoded, targetTab)
		if ok {
			res.Assignment = decoded
			iterSpan.SetStr("outcome", "verified")
			iterSpan.End()
			return res, nil
		}
		// Translate the mismatching input of f into an entry of the
		// encoded function: the dual orientation constrains f^D, whose
		// entry t corresponds to evaluating f at ¬t.
		entry := cex
		if dual {
			entry = ^cex & (encTab.Size() - 1)
		}
		if seen[entry] {
			iterSpan.SetStr("outcome", "stuck")
			iterSpan.End()
			return res, fmt.Errorf("encode: CEGAR failed to make progress on %v (entry %d)", g, entry)
		}
		iterSpan.SetStr("outcome", "counterexample")
		iterSpan.SetInt("cex", int64(entry))
		res.CEXInputs = append(res.CEXInputs, cex)
		addEntry(entry)
		iterSpan.End()
	}
}

// findMismatch simulates the assignment and returns the first input where
// it disagrees with the target table, or ok=true when it fully agrees.
func findMismatch(a *lattice.Assignment, tab *truth.Table) (uint64, bool) {
	for t := uint64(0); t < tab.Size(); t++ {
		if a.EvalConnectivity(t) != tab.Get(t) {
			return t, false
		}
	}
	return 0, true
}
