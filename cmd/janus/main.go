// Command janus synthesizes the functions of a PLA file onto switching
// lattices.
//
// Usage:
//
//	janus [-o N] [-multi] [-cegar] [-engine MODE] [-conflicts N]
//	      [-timeout D] [-v] [-progress] [-trace FILE] [-debug-addr ADDR] [file.pla]
//
// Without -multi each selected output is synthesized on its own lattice;
// with -multi all outputs are packed onto a single lattice with JANUS-MF.
// Reads standard input when no file is given. -progress prints the live
// anytime stream (bound moves, incumbents, dichotomic steps) to stderr as
// the search runs; -trace writes the synthesis' hierarchical span trace
// as JSONL (aggregate it with cmd/tracesum); -debug-addr serves /metrics
// and /debug/pprof while the run lasts.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/lattice-tools/janus"
)

func main() {
	var (
		outIdx    = flag.Int("o", -1, "synthesize only this output index (default: all)")
		multi     = flag.Bool("multi", false, "realize all outputs on a single lattice (JANUS-MF)")
		cegar     = flag.Bool("cegar", false, "use the CEGAR LM engine")
		engine    = flag.String("engine", "auto", "LM solver strategy: auto (per-step policy), shared (one assumption-based solver pool), or fresh (per-candidate solvers)")
		conflicts = flag.Int64("conflicts", 0, "SAT conflict budget per LM call (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "SAT time budget per LM call (0 = unlimited)")
		verbose   = flag.Bool("v", false, "print bounds and search statistics")
		progress  = flag.Bool("progress", false, "print live progress events (bounds, incumbents, steps) to stderr")
		svgPath   = flag.String("svg", "", "write the (first) solution as an SVG drawing to this file")
		tracePath = flag.String("trace", "", "write a JSONL span trace of the synthesis to this file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	p, err := janus.ParsePLA(in)
	if err != nil {
		fatal(err)
	}

	sel, err := janus.ParseEngineSelect(*engine)
	if err != nil {
		fatal(err)
	}

	opt := janus.Options{}
	opt.Encode.Limits = janus.SATLimits{MaxConflicts: *conflicts, Timeout: *timeout}
	opt.Encode.CEGAR = *cegar
	opt.EngineSelect = sel
	if *progress {
		opt.Progress = janus.NewProgressWriter(os.Stderr)
	}

	if *debugAddr != "" {
		ln, err := janus.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "janus: debug server on http://%s/metrics\n", ln.Addr())
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		tracer := janus.NewTracer(tf)
		opt.Tracer = tracer
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "janus: trace:", err)
			}
			if err := tf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "janus: trace:", err)
			}
		}()
	}

	if *multi {
		mr, err := janus.SynthesizeMulti(p.Covers, opt, true)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("multi-function lattice: %s (%d switches, %d LM problems, %v)\n",
			mr.Sol(), mr.Lattice.Size(), mr.LMSolved, mr.Elapsed.Round(time.Millisecond))
		fmt.Println(mr.Lattice.Assignment.Format(p.InputNames))
		return
	}

	for o, cov := range p.Covers {
		if *outIdx >= 0 && o != *outIdx {
			continue
		}
		res, err := janus.Synthesize(cov, opt)
		if err != nil {
			fatal(fmt.Errorf("output %s: %w", p.OutputNames[o], err))
		}
		fmt.Printf("%s: %dx%d (%d switches)\n",
			p.OutputNames[o], res.Grid.M, res.Grid.N, res.Size)
		if *verbose {
			fmt.Printf("  isop: %s\n", res.ISOP.Format(p.InputNames))
			fmt.Printf("  lb=%d oub=%d nub=%d (%s)  LM solved=%d  elapsed=%v  matched-lb=%v\n",
				res.LB, res.OUB, res.NUB, res.UBMethod, res.LMSolved,
				res.Elapsed.Round(time.Millisecond), res.MatchedLB)
			if res.Engine != "" {
				fmt.Printf("  engine: %s (predicted depth %d, %d shared / %d fresh steps)\n",
					res.Engine, res.PredictedDepth, res.SharedSteps, res.FreshSteps)
			}
			if res.SharedSteps > 0 {
				fmt.Printf("  shared: reused=%d stamped=%d cex-transferred=%d cex-filtered=%d learnts-pruned=%d\n",
					res.SharedReused, res.StampedClauses, res.TransferredCEX,
					res.CEXFiltered, res.LearntsPruned)
			}
		}
		fmt.Println(indent(res.Assignment.Format(p.InputNames), "  "))
		if *svgPath != "" {
			f, err := os.Create(*svgPath)
			if err != nil {
				fatal(err)
			}
			if err := res.Assignment.WriteSVG(f, p.InputNames); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *svgPath)
			*svgPath = "" // only the first synthesized output is drawn
		}
	}
}

func indent(s, pad string) string {
	out := pad
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += pad
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "janus:", err)
	os.Exit(1)
}
