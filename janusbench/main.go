// Command janusbench is the JANUS benchmark. It runs one workload against
// the packages of the checkout it is built from, checks every answer with
// its own lattice evaluator, and prints the workload's metrics as one JSON
// line, last on standard output:
//
//	janusbench --workload tableii|warm-hits|mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once traced, reports the per-layer
// metrics and the tracing overhead, and writes the traced half's spans to
// <out>/trace-<workload>-<seed>.jsonl (schema-checked by
// `go run ./cmd/tracesum -validate`). README.md describes every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string // directory for traces and scratch state
	rng      *rand.Rand

	attempted, failed int64
	wrong             int64 // answers that failed the output check
	metrics           map[string]metric
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// outcome books one attempted operation.
func (b *bench) outcome(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// perLayerUnits lists every per-layer metric a traced run reports.
var perLayerUnits = map[string]string{
	"minimize.ms":               "ms",
	"bounds.ms":                 "ms",
	"core.ds_ms":                "ms",
	"core.search_ms":            "ms",
	"core.lm_solves":            "count",
	"encode.build_ms":           "ms",
	"encode.clauses":            "count",
	"sat.props_per_s":           "1/s",
	"sat.conflicts_per_s":       "1/s",
	"sat.conflicts":             "count",
	"memo.paths_hit_rate":       "ratio",
	"pla.parse_us":              "us",
	"pla.alloc_kb":              "kB",
	"service.fnkey_us":          "us",
	"service.cache_lookup_us":   "us",
	"service.handler_us":        "us",
	"front.self_us":             "us",
	"alloc_kb_per_req":          "kB",
	"service.queue_wait_p99_ms": "ms",
	"service.solve_p50_ms":      "ms",
	"service.worker_busy_share": "ratio",
	"service.shed":              "count",
	"service.coalesced_share":   "ratio",
	"service.mem_hit_share":     "ratio",
	"service.disk_hit_share":    "ratio",
	"hit_p99_ms":                "ms",
	"miss_p50_ms":               "ms",
	"partial_share":             "ratio",
	"load.lag_p99_ms":           "ms",
	"load.backlog_end":          "count",
	"trace.overhead_pct":        "%",
}

var workloads = map[string]func(*bench) error{
	"tableii":   runTableII,
	"warm-hits": runWarmHits,
	"mixed":     runMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "tableii, warm-hits or mixed")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for traces and cache state")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "janusbench: usage: --workload tableii|warm-hits|mixed --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, rng: rand.New(rand.NewSource(*seed)),
		metrics: map[string]metric{},
	}
	var err error
	if b.out, err = filepath.Abs(*out); err == nil {
		err = os.MkdirAll(b.out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "janusbench:", err)
		os.Exit(1)
	}
	heap := startHeapSampler()
	err = run(b)
	peak := heap.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "janusbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if b.traced {
		// A layer the workload does not exercise reports zero work.
		for name, unit := range perLayerUnits {
			if _, ok := b.metrics[name]; !ok {
				b.set(name, 0, unit)
			}
		}
	} else {
		b.set("peak_heap_mb", peak/(1<<20), "MB")
	}
	rep := report{Correct: b.wrong == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "janusbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if b.failed > 0 || b.attempted == 0 {
		fmt.Fprintf(os.Stderr, "janusbench: %d of %d operations failed (%d wrong answers)\n",
			b.failed, b.attempted, b.wrong)
		os.Exit(1)
	}
}

// heapSampler tracks the peak of the live-plus-unswept heap, read every
// 5 ms through runtime/metrics.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = math.Max(peak, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// medianSetup runs setup n times from scratch and returns the state of
// the last repetition with the median set-up time; teardown (untimed)
// discards every earlier repetition's state.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, time.Duration, error) {
	var st T
	ds := make([]time.Duration, n)
	for i := range ds {
		if i > 0 {
			teardown(st)
		}
		start := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, err
		}
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return st, ds[n/2], nil
}
