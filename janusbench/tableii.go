package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/lattice-tools/janus/internal/benchdata"
	"github.com/lattice-tools/janus/internal/bounds"
	"github.com/lattice-tools/janus/internal/core"
	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
	"github.com/lattice-tools/janus/internal/lattice"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/minimize"
	"github.com/lattice-tools/janus/internal/obsv"
)

// tableIIRows is the fixed slice of Table II the workload solves: the
// rows whose search runs LM solves for more than 40 ms and that converge
// under tableIIConflicts within 5 s each on a 2-core machine, so that one
// pass takes about 10-14 s. The seed only orders them. TABLEII.md lists
// the other rows and why each is left out.
var tableIIRows = []string{
	"mp2d_06", "dc1_03", "misex1_04", "misex1_07", "b12_07", "b12_00",
}

const (
	// tableIIConflicts caps every LM SAT call, so a row's lattice size
	// does not depend on the machine's speed.
	tableIIConflicts = 20000
	// tableIIRowLimit is the latency limit of one row for goodput.
	tableIIRowLimit = 15 * time.Second
	// tableIIPassLength is the nominal length of one pass: a run makes
	// one pass per tableIIPassLength of --seconds, and at least two, so
	// every run compares the counts of two passes over the same rows.
	tableIIPassLength = 15 * time.Second
	// presearchReps is how many times set-up runs the pre-search phases.
	presearchReps = 51
)

// tableRow is one prepared Table II row.
type tableRow struct {
	inst  *benchdata.Instance
	f     cube.Cover
	table []bool
}

// rowRun is one solve of one row.
type rowRun struct {
	row       *tableRow
	res       core.Result
	dur       time.Duration
	conflicts int64
	props     int64
	// pathHits and pathMisses are the row's path-memo counters (the memo
	// is reset before each row).
	pathHits, pathMisses int64
	ok                   bool
}

// prepareTableII generates the stand-in function of every Table II row,
// checking each against the paper's profile, and prepares the solved
// slice with its reference truth tables.
func prepareTableII() ([]*tableRow, error) {
	for _, inst := range benchdata.TableII() {
		if _, ok := inst.Function(); !ok {
			return nil, fmt.Errorf("%s: stand-in misses the paper profile", inst.Name)
		}
	}
	rows := make([]*tableRow, len(tableIIRows))
	for i, name := range tableIIRows {
		inst := benchdata.Lookup(name)
		if inst == nil {
			return nil, fmt.Errorf("no Table II row %q", name)
		}
		f, _ := inst.Function()
		rows[i] = &tableRow{inst: inst, f: f, table: coverTable(f)}
	}
	return rows, nil
}

// solveRow runs the paper's pipeline on one row exactly as the tableii
// command does by default, from a cold memo, and checks the answer. A
// non-nil parent span makes core record its own span tree under it.
func solveRow(row *tableRow, parent *obsv.Span) rowRun {
	memo.Reset()
	// Start every row on a collected heap, so a row does not pay for the
	// garbage of the row before it and the seed's row order does not
	// move the figures.
	runtime.GC()
	before := obsv.Default.Snapshot()
	opt := core.Options{}
	opt.Encode.Limits.MaxConflicts = tableIIConflicts
	opt.Tracer, opt.TraceParent = parent.Tracer(), parent
	start := time.Now()
	res, err := core.Synthesize(row.f, opt)
	run := rowRun{row: row, res: res, dur: time.Since(start)}
	after := obsv.Default.Snapshot()
	run.conflicts = after.Get("janus_sat_conflicts_total") - before.Get("janus_sat_conflicts_total")
	run.props = after.Get("janus_sat_propagations_total") - before.Get("janus_sat_propagations_total")
	paths := memo.Snapshot()
	run.pathHits, run.pathMisses = paths.PathHits, paths.PathMisses
	run.ok = err == nil && res.Assignment != nil && !res.Partial && res.FinalLB == res.Size &&
		res.Size == res.Grid.M*res.Grid.N && res.Assignment.Realizes(row.f) &&
		latticeComputes(assignmentGrid(res.Assignment), row.table)
	return run
}

// presearch runs, from a cold memo, the phases core.Synthesize runs on
// every row before it calls the SAT solver, through their public
// functions: minimize.AutoDual, both bounds.All and bounds.LowerBound.
func presearch(rows []*tableRow) {
	memo.Reset()
	for _, row := range rows {
		isop, dual := minimize.AutoDual(row.f)
		bounds.All(isop, dual, false)
		if ub := bounds.All(isop, dual, true); len(ub) > 0 {
			bounds.LowerBound(isop, dual, ub[0].Size())
		}
	}
}

func runTableII(b *bench) error {
	rows, err := prepareTableII()
	if err != nil {
		return err
	}
	// Set-up is the program's own work before the search, repeated, each
	// time on a collected heap.
	runtime.GC()
	_, setup, _ := medianSetup(presearchReps, func() (struct{}, error) {
		presearch(rows)
		return struct{}{}, nil
	}, func(struct{}) { runtime.GC() })
	order := b.rng.Perm(len(rows))
	if b.traced {
		untraced := tableIIPass(b, rows, order, nil)
		rec := newRecorder()
		before := obsv.Default.Snapshot()
		traced := tableIIPass(b, rows, order, rec)
		printTableII([][]rowRun{untraced, traced})
		return tableIILayers(b, untraced, traced, rec, delta(before, obsv.Default.Snapshot()))
	}
	passes := make([][]rowRun, max(2, int(b.seconds/tableIIPassLength)))
	var good int
	var solving time.Duration
	for p := range passes {
		passes[p] = tableIIPass(b, rows, order, nil)
		for _, r := range passes[p] {
			solving += r.dur
			if r.ok && r.dur <= tableIIRowLimit {
				good++
			}
		}
	}
	printTableII(passes)
	// A row's time is the best of its passes. Its work repeats exactly
	// from pass to pass (the counts column of printTableII shows it), so
	// a slower pass is the shared machine, not the program.
	best := make([]time.Duration, len(rows))
	for i := range best {
		best[i] = passes[0][i].dur
		for _, p := range passes[1:] {
			best[i] = min(best[i], p[i].dur)
		}
	}
	lat := ms(best)
	b.set("setup_s", setup.Seconds(), "s")
	b.set("p50_ms", quantile(lat, 0.5), "ms")
	b.set("p99_ms", quantile(lat, 0.99), "ms")
	b.set("miss_mean_ms", mean(lat), "ms")
	b.set("goodput_rps", float64(good)/solving.Seconds(), "1/s")
	switches := 0
	for _, r := range passes[0] {
		switches += r.res.Size
	}
	b.set("switches", float64(switches), "count")
	return nil
}

// tableIIPass solves every row once in the given order. With a recorder it
// wraps each row in spans around the calls into each layer, and core
// records its own spans under the core.Synthesize span.
func tableIIPass(b *bench, rows []*tableRow, order []int, rec *recorder) []rowRun {
	runs := make([]rowRun, 0, len(rows))
	for _, i := range order {
		row := rows[i]
		root := rec.start("tableii.row", nil)
		root.SetStr("row", row.inst.Name)
		if rec != nil {
			// The phases Synthesize runs first, replayed through their
			// public functions so a regression names its layer.
			sp := root.Child("minimize.AutoDual")
			isop, dual := minimize.AutoDual(row.f)
			sp.End()
			sp = root.Child("bounds.All")
			bounds.All(isop, dual, false)
			ub := bounds.All(isop, dual, true)
			sp.End()
			if len(ub) > 0 {
				sp = root.Child("bounds.LowerBound")
				bounds.LowerBound(isop, dual, ub[0].Size())
				sp.End()
			}
		}
		sp := root.Child("core.Synthesize")
		r := solveRow(row, sp)
		sp.End()
		if rec != nil {
			replayBuildCNF(root, r)
		}
		root.SetStr("grid", r.res.Grid.String())
		root.End()
		b.outcome(r.ok)
		if !r.ok {
			b.wrong++
			fmt.Fprintf(os.Stderr, "tableii: %s: answer %v failed the check (partial=%v final_lb=%d)\n",
				row.inst.Name, r.res.Grid, r.res.Partial, r.res.FinalLB)
		}
		runs = append(runs, r)
	}
	return runs
}

// replayBuildCNF rebuilds the LM formulation of every grid the row's
// search probed, timing encode.BuildCNF and counting its clauses.
func replayBuildCNF(root *obsv.Span, r rowRun) {
	isop, dual := r.res.ISOP, r.res.DualISOP
	for _, g := range r.res.GridsProbed {
		var grid lattice.Grid
		if _, err := fmt.Sscanf(g, "%dx%d", &grid.M, &grid.N); err != nil {
			continue
		}
		sp := root.Child("encode.BuildCNF")
		cnf, _, err := encode.BuildCNF(isop, dual, grid, encode.Options{})
		if err == nil {
			sp.SetInt("clauses", int64(cnf.NumClauses()))
		}
		sp.End()
	}
}

// tableIILayers reports the per-layer metrics of the traced pass. The
// tracing overhead compares the rows' solve times in the two passes: core
// records its span tree only in the traced one, and the replayed calls run
// outside those times.
func tableIILayers(b *bench, untraced, traced []rowRun, rec *recorder, d func(string) int64) error {
	var lm, hits, misses int64
	var synthU, synthT time.Duration
	for i := range traced {
		lm += int64(traced[i].res.LMSolved)
		hits += traced[i].pathHits
		misses += traced[i].pathMisses
		synthT += traced[i].dur
		synthU += untraced[i].dur
	}
	recs, err := rec.records()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var clauses int64
	for _, r := range recs {
		// JSON numbers read back as float64.
		if c, ok := r.Attrs["clauses"].(float64); ok && r.Span == "encode.BuildCNF" {
			clauses += int64(c)
		}
	}
	solverLayers(b, d)
	// Here the benchmark calls minimize and bounds itself: time those calls.
	durs := durations(recs)
	totalMS := func(names ...string) float64 {
		var sum time.Duration
		for _, n := range names {
			for _, d := range durs[n] {
				sum += d
			}
		}
		return float64(sum) / 1e6
	}
	b.set("minimize.ms", totalMS("minimize.AutoDual"), "ms")
	b.set("bounds.ms", totalMS("bounds.All", "bounds.LowerBound"), "ms")
	b.set("core.lm_solves", float64(lm), "count")
	b.set("encode.build_ms", totalMS("encode.BuildCNF"), "ms")
	b.set("encode.clauses", float64(clauses), "count")
	b.set("memo.paths_hit_rate", ratio(hits, hits+misses), "ratio")
	b.set("trace.overhead_pct", 100*(synthT.Seconds()-synthU.Seconds())/synthU.Seconds(), "%")
	return writeTrace(b, rec)
}

// solverLayers reports the solver-path layers from the program's own
// counters over one measured window.
func solverLayers(b *bench, d func(string) int64) {
	phase := func(p string) float64 { return float64(d("janus_core_phase_"+p+"_ns_total")) / 1e6 }
	b.set("minimize.ms", phase("minimize"), "ms")
	b.set("bounds.ms", phase("bounds"), "ms")
	b.set("core.ds_ms", phase("ds"), "ms")
	b.set("core.search_ms", phase("search"), "ms")
	satS := float64(d("janus_sat_solve_ns_total")) / 1e9
	rate := func(n int64) float64 {
		if satS == 0 {
			return 0
		}
		return float64(n) / satS
	}
	b.set("sat.props_per_s", rate(d("janus_sat_propagations_total")), "1/s")
	b.set("sat.conflicts_per_s", rate(d("janus_sat_conflicts_total")), "1/s")
	b.set("sat.conflicts", float64(d("janus_sat_conflicts_total")), "count")
}

func printTableII(passes [][]rowRun) {
	fmt.Printf("%-10s %6s %6s %5s %5s %9s %6s %9s %11s %s\n",
		"row", "grid", "paper", "lb", "p.lb", "ms", "lm", "conflicts", "props", "counts")
	for i, r := range passes[0] {
		exact := "exact"
		for _, p := range passes[1:] {
			o := p[i]
			if o.res.LMSolved != r.res.LMSolved || o.conflicts != r.conflicts || o.props != r.props || o.res.Size != r.res.Size {
				exact = "vary"
			}
		}
		if len(passes) == 1 {
			exact = "-"
		}
		fmt.Printf("%-10s %6s %6s %5d %5d %9.1f %6d %9d %11d %s\n",
			r.row.inst.Name, r.res.Grid, r.row.inst.Paper["janus"], r.res.LB, r.row.inst.PaperLB,
			float64(r.dur)/1e6, r.res.LMSolved, r.conflicts, r.props, exact)
	}
	var cells []string
	for _, p := range passes {
		n := 0
		for _, r := range p {
			n += r.res.Size
		}
		cells = append(cells, fmt.Sprint(n))
	}
	fmt.Printf("switches per pass: %s\n", strings.Join(cells, " "))
}
