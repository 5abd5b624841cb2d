// Package encode formulates the lattice mapping (LM) problem as SAT,
// following Section III-A of the paper.
//
// Given a target function f (ISOP) and an m×n lattice, the encoding asks
// for an assignment of target literals and constants to the lattice's
// switch control inputs such that the lattice's top–bottom connectivity
// function equals f. Mapping variables pick one target literal per switch;
// per-truth-table-entry circuit variables carry the switch states; off
// entries contribute one clause per lattice path, on entries contribute a
// Tseitin OR over path variables plus the paper's two connectivity facts.
//
// The dual formulation — realizing f^D with the 8-connected left–right
// paths — is built symmetrically, and the problem with the smaller
// variables × clauses complexity is handed to the SAT solver. A model of
// the dual problem converts to a primal lattice implementation by swapping
// the constants 0 and 1.
package encode

import (
	"errors"
	"fmt"

	"github.com/lattice-tools/janus/internal/cnf"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/sat"
)

// Mode selects which of the two LM formulations to use.
type Mode int

const (
	// Auto picks the formulation with the smaller vars×clauses complexity
	// (the paper's rule).
	Auto Mode = iota
	// PrimalOnly always uses the top–bottom formulation.
	PrimalOnly
	// DualOnly always uses the left–right dual formulation.
	DualOnly
)

// Options tunes the LM encoding. The zero value enables everything the
// paper describes with no SAT budget.
type Options struct {
	Mode Mode
	// DisableFacts drops the two on-entry connectivity facts (ablation).
	DisableFacts bool
	// DisableDegree drops the degree-matching and long-product constraints
	// (ablation).
	DisableDegree bool
	// LongProductThreshold is the paper's empirical literal-count cutoff
	// above which a product must be realized by an equally long lattice
	// path. Zero means the default of 5.
	LongProductThreshold int
	// DisableSymmetry drops the mirror symmetry-breaking constraints
	// (ablation). Reversing the rows or the columns of a lattice preserves
	// its plate-to-plate connectivity function, so the encoding may demand
	// the corner-minimal representative of each solution orbit.
	DisableSymmetry bool
	// FullTL maps switches over every literal of every variable instead of
	// only the literals appearing in the ISOP, as the exact method of
	// Gange et al. effectively allows.
	FullTL bool
	// StrictProducts forces every target product to be realized by a path
	// whose cells carry only that product's literals (plus constant 1) —
	// the restriction the approximate method of Gange et al. imposes.
	StrictProducts bool
	// CEGAR switches SolveLM to the counterexample-guided engine, which
	// materializes truth-table entries lazily (see SolveLMCegar).
	CEGAR bool
	// Shared, when non-nil, makes the CEGAR engine solve every candidate
	// grid on one persistent assumption-based solver per (cover,
	// orientation) drawn from this pool, instead of a fresh solver per
	// candidate: skeletons are guarded by activation literals, entry
	// clauses are stamped from path templates, and counterexample entries
	// transfer between candidates (see SharedPool). Implies CEGAR.
	Shared *SharedPool
	// CEXTransferLimit caps how many already-known counterexample entries
	// the shared engine transfers into a grid skeleton per solve, most
	// recent first; older entries are dropped and rediscovered on demand.
	// The filter is speed-only: a skeleton holding fewer entries is a
	// coarser relaxation of the same LM problem, so Unsat stays definitive
	// and Sat is still verified by simulation — answers never change, only
	// how much stale clause freight a shallow candidate pays for. Zero
	// means DefaultCEXTransferLimit; negative disables the filter
	// (transfer everything). Ignored without Shared.
	CEXTransferLimit int
	// SharedLearntLBD and SharedLearntSize gate the learnt clauses a
	// shared engine keeps when it switches to a different candidate grid:
	// learnts with LBD above SharedLearntLBD or more than SharedLearntSize
	// literals are pruned (sat.Solver.PruneLearnts), shedding watch-list
	// freight that mostly mentions the previous grid's activation literal.
	// Zero means the defaults; negative keeps every learnt clause.
	// Ignored without Shared.
	SharedLearntLBD  int
	SharedLearntSize int
	// Limits bounds each SAT call.
	Limits sat.Limits
	// Span, when non-nil, is the parent trace span under which this LM
	// solve opens its Candidate(m×n,orient) spans; nil disables tracing
	// for the call at zero cost (see internal/obsv).
	Span *obsv.Span
}

func (o Options) longThreshold() int {
	if o.LongProductThreshold <= 0 {
		return 5
	}
	return o.LongProductThreshold
}

// Defaults of the shared engine's clause-quality filter. The transfer
// limit keeps roughly the CEGAR working set of one candidate (a few dozen
// entries converge on the paper's instances); the learnt gates mirror the
// "keep the good half" spirit of the solver's own reduceDB but act at
// grid-switch time, when the learnt database is most biased toward the
// previous grid.
const (
	DefaultCEXTransferLimit = 24
	DefaultSharedLearntLBD  = 6
	DefaultSharedLearntSize = 30
)

// cexTransferLimit resolves the per-solve entry-transfer cap; -1 means
// unlimited.
func (o Options) cexTransferLimit() int {
	if o.CEXTransferLimit == 0 {
		return DefaultCEXTransferLimit
	}
	if o.CEXTransferLimit < 0 {
		return -1
	}
	return o.CEXTransferLimit
}

// learntPrune resolves the grid-switch learnt gates; on is false when the
// caller asked to keep everything.
func (o Options) learntPrune() (maxLBD int32, maxSize int, on bool) {
	if o.SharedLearntLBD < 0 || o.SharedLearntSize < 0 {
		return 0, 0, false
	}
	maxLBD = int32(o.SharedLearntLBD)
	if maxLBD == 0 {
		maxLBD = DefaultSharedLearntLBD
	}
	maxSize = o.SharedLearntSize
	if maxSize == 0 {
		maxSize = DefaultSharedLearntSize
	}
	return maxLBD, maxSize, true
}

// Result reports the outcome of an LM solve.
type Result struct {
	Status     sat.Status
	Assignment *lattice.Assignment // non-nil iff Status == Sat
	UsedDual   bool                // dual formulation was chosen
	Vars       int
	Clauses    int
	SolverStat sat.Stats
	Structural bool // true when the structural check already refuted

	// CegarIters counts CEGAR refinement iterations (SAT calls); zero for
	// the monolithic engine.
	CegarIters int
	// AddedClauses counts the clauses actually handed to SAT solvers over
	// the whole solve. For the incremental CEGAR engine each clause is
	// added once to one persistent solver, so this stays close to Clauses;
	// a rebuild-per-iteration engine would re-add the whole formula every
	// round (see RebuiltClauses).
	AddedClauses int
	// RebuiltClauses is the clause volume a rebuild-per-iteration CEGAR
	// engine would have added: the sum over iterations of the formula size
	// at that iteration. AddedClauses/RebuiltClauses is the incremental
	// saving; the two are equal for single-iteration and monolithic
	// solves.
	RebuiltClauses int

	// ReusedSolvers is 1 when the shared engine answered this candidate
	// from a skeleton stamped by an earlier solve (Options.Shared only).
	ReusedSolvers int
	// StampedClauses counts the clauses stamped into the shared solver
	// during this solve: skeleton (first activation only), transferred
	// counterexample entries, and entries this solve's refinement
	// discovered. Equals AddedClauses under Options.Shared.
	StampedClauses int
	// TransferredCEXClauses is the portion of StampedClauses that encodes
	// counterexample entries discovered by *other* candidates — knowledge
	// this solve got for free.
	TransferredCEXClauses int
	// TransferFiltered counts the already-known counterexample entries the
	// quality filter declined to transfer into this solve's skeleton (the
	// drop count next to TransferredCEXClauses' kept clauses); dropped
	// entries are rediscovered by refinement if they matter.
	TransferFiltered int
	// PrunedLearnts counts the learnt clauses the shared engine pruned
	// from its solver (LBD/size gate) when this solve switched it to a
	// different candidate grid.
	PrunedLearnts int
	// CEXInputs are the inputs of the target (primal truth-table
	// indexes) where this solve's candidate mappings mismatched during
	// refinement. They are function-level knowledge, independent of grid
	// and orientation, so a caller that later opens a shared pool for the
	// same target can pre-load them (SharedPool.Warm) instead of paying
	// to rediscover them. Only the fresh per-candidate engine reports
	// them; pool-backed solves feed the pool directly.
	CEXInputs []uint64
	// AssumptionCoreSize is the size of the final-conflict assumption
	// core of the last Unsat answer (Options.Shared only; zero otherwise).
	AssumptionCoreSize int
}

// MaxInputs bounds the target function size for the truth-table-based
// encoding.
const MaxInputs = 16

// maxFormulaWork caps the estimated literal volume per formulation
// (paths × path length × truth-table entries). Wide lattices can have
// millions of (dual) paths, and materializing one clause per path per
// entry — each about a path long — would exhaust memory. A formulation
// over the cap is skipped (and the LM answer degrades to Unknown when
// both are), which the search treats like a SAT timeout.
const maxFormulaWork = 6 << 20

// formulaWork estimates the encoding effort of one formulation with a
// bounded path count; results above maxFormulaWork mean "too big".
func formulaWork(g lattice.Grid, dual bool, nInputs int) int64 {
	avgLen := int64(g.M + g.N/2)
	if dual {
		avgLen = int64(g.N + g.M/2)
	}
	if avgLen < 1 {
		avgLen = 1
	}
	pathLimit := int64(maxFormulaWork)/avgLen>>uint(nInputs) + 1
	paths := g.CountPathsLimited(pathLimit, dual)
	return paths * avgLen * (1 << uint(nInputs))
}

// ErrTooManyInputs is returned when the target has more inputs than the
// encoding supports.
var ErrTooManyInputs = errors.New("encode: target has too many inputs")

// targetLit is one element of the TL set: a literal of the target (as a
// lattice.Entry) or a constant.
type targetLit = lattice.Entry

// buildTL collects the TL set: every literal appearing in the ISOP target
// plus the constants 0 and 1 (or all 2N literals when full is set).
func buildTL(target cube.Cover, full bool) []targetLit {
	tl := []targetLit{{Kind: lattice.Const0}, {Kind: lattice.Const1}}
	pos, neg := target.LiteralSet()
	if full {
		pos = (1 << uint(target.N)) - 1
		neg = pos
	}
	for v := 0; v < target.N; v++ {
		bit := uint64(1) << uint(v)
		if pos&bit != 0 {
			tl = append(tl, targetLit{Kind: lattice.PosVar, Var: v})
		}
		if neg&bit != 0 {
			tl = append(tl, targetLit{Kind: lattice.NegVar, Var: v})
		}
	}
	return tl
}

// StructuralCheck performs the paper's quick refutation: the lattice must
// offer at least as many products as the target, a product at least as
// long as every target product, and the same must hold for the duals.
// Both tests use bounded path enumeration, so the check never
// materializes a large lattice function.
func StructuralCheck(target, targetDual cube.Cover, g lattice.Grid) bool {
	return structuralHalf(target, g, false) && structuralHalf(targetDual, g, true)
}

func structuralHalf(target cube.Cover, g lattice.Grid, dual bool) bool {
	need := int64(len(target.Cubes))
	if g.CountPathsLimited(need, dual) < need {
		return false
	}
	return g.HasPathOfLen(target.Degree(), dual)
}

// problem carries one orientation of the LM encoding.
type problem struct {
	b       *cnf.Builder
	g       lattice.Grid
	tl      []targetLit
	paths   []lattice.Path // memo-shared; read-only
	mapVars [][]sat.Lit    // [cell][tlIdx]
	dual    bool
}

// newProblem builds the entry-independent skeleton of the LM encoding:
// mapping variables with exactly-one per cell, the degree and
// strict-product constraints, and symmetry breaking. Truth-table entries
// are constrained separately via addEntry, so the CEGAR engine can grow
// the formula incrementally on one persistent solver.
func newProblem(target cube.Cover, g lattice.Grid, dual bool, opt Options) *problem {
	p := &problem{b: cnf.NewBuilder(), g: g, tl: buildTL(target, opt.FullTL), dual: dual}
	p.paths = memo.Paths(g, dual)
	cells := g.Cells()

	// Mapping variables with exactly-one per cell.
	p.mapVars = make([][]sat.Lit, cells)
	for cell := 0; cell < cells; cell++ {
		row := make([]sat.Lit, len(p.tl))
		for j := range p.tl {
			row[j] = p.b.NewVar(fmt.Sprintf("m_%d_%d", cell, j))
		}
		p.mapVars[cell] = row
		p.b.ExactlyOne(row...)
	}

	if !opt.DisableDegree {
		p.addDegreeConstraints(target, p.paths, opt)
	}
	if opt.StrictProducts {
		p.addStrictProducts(target, p.paths)
	}
	if !opt.DisableSymmetry {
		p.addSymmetryBreak()
	}
	return p
}

// addEntry constrains one truth-table point: per-entry switch-state
// variables linked to the mapping choice, then the off-entry path clauses
// (Fig. 3(a)) or the on-entry path disjunction plus connectivity facts
// (Fig. 3(b)).
func (p *problem) addEntry(t uint64, val bool, opt Options) {
	cells := p.g.Cells()
	// Per-entry switch-state variables Y[cell].
	y := make([]sat.Lit, cells)
	for cell := 0; cell < cells; cell++ {
		y[cell] = p.b.NewVar(fmt.Sprintf("y_%d_%d", cell, t))
	}
	// Link mapping choices to switch states.
	for cell := 0; cell < cells; cell++ {
		for j, tl := range p.tl {
			if tl.Eval(t) {
				p.b.AddImply(p.mapVars[cell][j], y[cell])
			} else {
				p.b.AddImply(p.mapVars[cell][j], y[cell].Not())
			}
		}
	}
	if !val {
		// Every path must contain an off switch (Fig. 3(a)).
		for _, path := range p.paths {
			clause := make([]sat.Lit, len(path.Cells))
			for i, cell := range path.Cells {
				clause[i] = y[cell].Not()
			}
			p.b.Add(clause...)
		}
		return
	}
	// On entry (Fig. 3(b)): some path fully on.
	or := make([]sat.Lit, len(p.paths))
	for pi, path := range p.paths {
		a := p.b.NewVar(fmt.Sprintf("a_%d_%d", pi, t))
		for _, cell := range path.Cells {
			p.b.AddImply(a, y[cell])
		}
		or[pi] = a
	}
	p.b.Add(or...)
	if !opt.DisableFacts {
		p.addFacts(y, t)
	}
}

// build constructs the CNF for realizing target on the grid's primal
// (dual=false) or dual (dual=true) path structure. entries selects the
// truth-table points to constrain; nil means all 2^N of them (the
// monolithic formulation).
func build(target cube.Cover, g lattice.Grid, dual bool, opt Options, entries []uint64) *problem {
	p := newProblem(target, g, dual, opt)
	tab := memo.TableOf(target)
	if entries == nil {
		entries = make([]uint64, tab.Size())
		for t := range entries {
			entries[t] = uint64(t)
		}
	}
	for _, t := range entries {
		p.addEntry(t, tab.Get(t), opt)
	}
	return p
}

// addSymmetryBreak prunes the row-mirror and column-mirror symmetries of
// the lattice. Both mirrors preserve the top–bottom (and left–right)
// connectivity function, so for any solution the orbit of four mirrored
// solutions contains one whose top-left corner choice index is minimal
// among the four corners; demanding choice(0,0) ≤ choice(0,N−1) and
// choice(0,0) ≤ choice(M−1,0) keeps exactly such representatives.
func (p *problem) addSymmetryBreak() {
	g := p.g
	c00 := g.Cell(0, 0)
	if g.N > 1 {
		p.addChoiceLE(c00, g.Cell(0, g.N-1))
	}
	if g.M > 1 {
		p.addChoiceLE(c00, g.Cell(g.M-1, 0))
	}
}

// addChoiceLE forbids choice(a) > choice(b) over the one-hot mapping
// variables: for every j > k, not (X[a][j] and X[b][k]).
func (p *problem) addChoiceLE(a, b int) {
	for j := 1; j < len(p.tl); j++ {
		for k := 0; k < j; k++ {
			p.b.Add(p.mapVars[a][j].Not(), p.mapVars[b][k].Not())
		}
	}
}

// addStrictProducts is the Gange-style approximate restriction: every
// target product must be realized by some sufficiently long path whose
// cells carry only the product's literals or constant 1.
func (p *problem) addStrictProducts(target cube.Cover, paths []lattice.Path) {
	for qi, q := range target.Cubes {
		var choices []int
		for j, tl := range p.tl {
			switch tl.Kind {
			case lattice.Const1:
				choices = append(choices, j)
			case lattice.PosVar:
				if q.HasPos(tl.Var) {
					choices = append(choices, j)
				}
			case lattice.NegVar:
				if q.HasNeg(tl.Var) {
					choices = append(choices, j)
				}
			}
		}
		var or []sat.Lit
		for pi, path := range paths {
			if path.Len() < q.NumLiterals() {
				continue
			}
			z := p.b.NewVar(fmt.Sprintf("zs_%d_%d", qi, pi))
			for _, cell := range path.Cells {
				clause := make([]sat.Lit, 0, len(choices)+1)
				clause = append(clause, z.Not())
				for _, j := range choices {
					clause = append(clause, p.mapVars[cell][j])
				}
				p.b.Add(clause...)
			}
			or = append(or, z)
		}
		if len(or) == 0 {
			// No path can host this product: force unsatisfiability.
			p.b.Add()
			return
		}
		p.b.Add(or...)
	}
}

// addFacts adds the paper's two structural facts for an on entry: (i)
// every rank (row for the primal orientation, column for the dual) holds
// an on switch; (ii) every two consecutive ranks share an on pair in
// adjacent positions (same column for 4-connectivity; row distance ≤ 1
// for 8-connectivity).
func (p *problem) addFacts(y []sat.Lit, t uint64) {
	g := p.g
	ranks, perRank := g.M, g.N
	rankCell := func(rank, i int) int { return g.Cell(rank, i) }
	if p.dual {
		ranks, perRank = g.N, g.M
		rankCell = func(rank, i int) int { return g.Cell(i, rank) }
	}
	// (i) at least one on switch per rank.
	for r := 0; r < ranks; r++ {
		clause := make([]sat.Lit, perRank)
		for i := 0; i < perRank; i++ {
			clause[i] = y[rankCell(r, i)]
		}
		p.b.Add(clause...)
	}
	// (ii) consecutive ranks share an adjacent on pair.
	for r := 0; r+1 < ranks; r++ {
		var or []sat.Lit
		for i := 0; i < perRank; i++ {
			jLo, jHi := i, i
			if p.dual { // 8-connectivity allows diagonal crossings
				jLo, jHi = i-1, i+1
			}
			for j := jLo; j <= jHi; j++ {
				if j < 0 || j >= perRank {
					continue
				}
				pair := p.b.NewVar(fmt.Sprintf("b_%d_%d_%d_%d", r, i, j, t))
				p.b.AddImply(pair, y[rankCell(r, i)])
				p.b.AddImply(pair, y[rankCell(r+1, j)])
				or = append(or, pair)
			}
		}
		p.b.Add(or...)
	}
}

// addDegreeConstraints adds the paper's third encoding step: when the
// target degree equals the lattice degree, each maximum-degree product
// must be realized by a maximum-length path whose cells map into the
// product's literals; products longer than the threshold must use an
// equally long path (cells may also map to constant 1).
func (p *problem) addDegreeConstraints(target cube.Cover, paths []lattice.Path, opt Options) {
	maxPath := 0
	for _, path := range paths {
		if path.Len() > maxPath {
			maxPath = path.Len()
		}
	}
	delta := target.Degree()
	long := opt.longThreshold()

	// Indexes into the TL set for a given cube's literals (plus const 1).
	litChoices := func(c cube.Cube, allowOne bool) []int {
		var idx []int
		for j, tl := range p.tl {
			switch tl.Kind {
			case lattice.Const1:
				if allowOne {
					idx = append(idx, j)
				}
			case lattice.PosVar:
				if c.HasPos(tl.Var) {
					idx = append(idx, j)
				}
			case lattice.NegVar:
				if c.HasNeg(tl.Var) {
					idx = append(idx, j)
				}
			}
		}
		return idx
	}

	addRealization := func(q cube.Cube, candidates []lattice.Path, allowOne bool, tag string) {
		if len(candidates) == 0 {
			return
		}
		choices := litChoices(q, allowOne)
		var or []sat.Lit
		for pi, path := range candidates {
			z := p.b.NewVar(fmt.Sprintf("%s_%d", tag, pi))
			for _, cell := range path.Cells {
				clause := make([]sat.Lit, 0, len(choices)+1)
				clause = append(clause, z.Not())
				for _, j := range choices {
					clause = append(clause, p.mapVars[cell][j])
				}
				p.b.Add(clause...)
			}
			or = append(or, z)
		}
		p.b.Add(or...)
	}

	for qi, q := range target.Cubes {
		nl := q.NumLiterals()
		if nl == delta && delta == maxPath {
			var cands []lattice.Path
			for _, path := range paths {
				if path.Len() == delta {
					cands = append(cands, path)
				}
			}
			addRealization(q, cands, false, fmt.Sprintf("zdeg_%d", qi))
		} else if nl > long {
			var cands []lattice.Path
			for _, path := range paths {
				if path.Len() >= nl {
					cands = append(cands, path)
				}
			}
			addRealization(q, cands, true, fmt.Sprintf("zlong_%d", qi))
		}
	}
}

// decode extracts the lattice assignment from a SAT model. For the dual
// formulation the constants 0 and 1 are swapped, which by the duality
// theorem turns a realization of f^D on the left–right structure into a
// realization of f on the top–bottom structure.
func (p *problem) decode(s *sat.Solver) *lattice.Assignment {
	a := lattice.NewAssignment(p.g)
	for cell := range p.mapVars {
		for j, mv := range p.mapVars[cell] {
			if s.Model(mv.Var()) {
				e := p.tl[j]
				if p.dual {
					switch e.Kind {
					case lattice.Const0:
						e = targetLit{Kind: lattice.Const1}
					case lattice.Const1:
						e = targetLit{Kind: lattice.Const0}
					}
				}
				a.Entries[cell] = e
				break
			}
		}
	}
	return a
}

// BuildCNF constructs the LM formulation the solver would run (choosing
// primal or dual per the options) without solving it, for inspection or
// DIMACS export. The second result reports whether the dual formulation
// was chosen.
func BuildCNF(target, targetDual cube.Cover, g lattice.Grid, opt Options) (*cnf.Builder, bool, error) {
	if target.N > MaxInputs {
		return nil, false, ErrTooManyInputs
	}
	pw := formulaWork(g, false, target.N)
	dw := formulaWork(g, true, target.N)
	useDual := false
	switch opt.Mode {
	case PrimalOnly:
	case DualOnly:
		useDual = true
	default:
		useDual = dw < pw
	}
	w := pw
	if useDual {
		w = dw
	}
	if w > maxFormulaWork {
		return nil, useDual, errors.New("encode: formulation too large to materialize")
	}
	if useDual {
		return build(targetDual, g, true, opt, nil).b, true, nil
	}
	return build(target, g, false, opt, nil).b, false, nil
}

// SolveLM decides whether target (with precomputed dual targetDual, both
// in ISOP form over the same variables) can be realized on the grid, and
// returns a verified lattice assignment when it can.
func SolveLM(target, targetDual cube.Cover, g lattice.Grid, opt Options) (Result, error) {
	if target.N > MaxInputs {
		return Result{}, ErrTooManyInputs
	}
	if opt.CEGAR || opt.Shared != nil {
		sub := opt
		sub.CEGAR = false
		return SolveLMCegar(target, targetDual, g, sub)
	}
	// Trivial constants.
	if target.IsZero() || target.IsOne() {
		a := lattice.NewAssignment(g)
		kind := lattice.Const0
		if target.IsOne() {
			kind = lattice.Const1
		}
		for i := range a.Entries {
			a.Entries[i] = targetLit{Kind: kind}
		}
		return Result{Status: sat.Sat, Assignment: a}, nil
	}
	if !StructuralCheck(target, targetDual, g) {
		mStructural.Inc()
		return Result{Status: sat.Unsat, Structural: true}, nil
	}

	// Decide which formulations to attempt and in what order. The paper
	// compares the built problems' vars × clauses; we order by an
	// equivalent path-count estimate instead so that the losing
	// formulation is never materialized (wide lattices can have millions
	// of dual paths) and oversized formulations are skipped outright.
	type attempt struct {
		cover cube.Cover
		dual  bool
	}
	var attempts []attempt
	oversized := false
	switch opt.Mode {
	case PrimalOnly:
		if formulaWork(g, false, target.N) > maxFormulaWork {
			oversized = true
		} else {
			attempts = []attempt{{target, false}}
		}
	case DualOnly:
		if formulaWork(g, true, target.N) > maxFormulaWork {
			oversized = true
		} else {
			attempts = []attempt{{targetDual, true}}
		}
	default:
		pw := formulaWork(g, false, target.N)
		dw := formulaWork(g, true, target.N)
		if dw < pw {
			attempts = []attempt{{targetDual, true}, {target, false}}
		} else {
			attempts = []attempt{{target, false}, {targetDual, true}}
		}
		kept := attempts[:0]
		for _, a := range attempts {
			w := pw
			if a.dual {
				w = dw
			}
			if w > maxFormulaWork {
				oversized = true
				continue
			}
			kept = append(kept, a)
		}
		attempts = kept
	}

	var res Result
	var chosen *problem
	var s *sat.Solver
	sawUnknown := oversized
	for _, a := range attempts {
		s = nil // release the previous attempt's solver before building
		p := build(a.cover, g, a.dual, opt, nil)
		s = p.b.SolverFrom()
		p.b.ReleaseClauses() // the solver holds its own copy now
		cand, setSpan := startCandidate(opt.Span, g, a.dual, "monolithic", s)
		solveSpan := cand.Child("SatSolve")
		setSpan(solveSpan)
		st := s.Solve(opt.Limits)
		solveSpan.End()
		chosen = p
		res = Result{
			Status:         st,
			UsedDual:       p.dual,
			Vars:           p.b.NumVars(),
			Clauses:        p.b.NumClauses(),
			SolverStat:     s.Stats(),
			AddedClauses:   p.b.NumClauses(),
			RebuiltClauses: p.b.NumClauses(),
		}
		mClausesAdded.Add(int64(res.AddedClauses))
		mClausesRebld.Add(int64(res.RebuiltClauses))
		noteStatus(cand, res)
		cand.End()
		if st == sat.Sat {
			break
		}
		if st == sat.Unknown {
			sawUnknown = true
		}
	}
	if res.Status != sat.Sat {
		if sawUnknown {
			res.Status = sat.Unknown
		}
		return res, nil
	}
	// Both formulations decode to an assignment that must implement f on
	// the top–bottom structure (the dual decode swaps constants, which by
	// the duality theorem converts an f^D left–right realization into an
	// f top–bottom realization). Verify against the physical ground truth
	// (the memo-cached target table: the search verifies against the same
	// target for every candidate grid).
	a := chosen.decode(s)
	if !a.Table(target.N).Equal(memo.TableOf(target)) {
		return res, fmt.Errorf("encode: model fails verification on %v (dual=%v)", g, chosen.dual)
	}
	res.Assignment = a
	return res, nil
}
