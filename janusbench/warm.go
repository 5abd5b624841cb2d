package main

import (
	"fmt"
	"path/filepath"
	"time"
)

const (
	// warmSetSize functions fit the two backends' 256-entry memory LRUs
	// several times over, so every measured request is a "mem" hit. They
	// have 3 inputs: 192 of the 208 such functions the generator reaches,
	// so set-up time hardly depends on the seed's draw.
	warmSetSize = 192
	// warmTimeoutMS is every warm-hits request's budget; the set solves
	// well inside it, so no cached answer is partial.
	warmTimeoutMS = 10000
	// warmLimit is the latency limit of a warm hit for goodput.
	warmLimit = 100 * time.Millisecond
	// warmSetupReps set-ups of a quarter of a second each make the median
	// set-up steady against second-long slowdowns of a shared machine.
	warmSetupReps = 7
	// repeatCubes bounds the cubes of a repeated function. Repeats are
	// solved only while warming up, where a few slow functions would make
	// set-up time depend on the seed's draw.
	repeatCubes = 3
)

// warmed is a fleet whose caches hold the whole repeat set.
type warmed struct {
	fl       *fleet
	answers  []answer // the warm-up round trips (cold solves)
	switches int
}

// warmFleet starts a cold fleet and sends every function of set once, so
// each is solved and cached by its owner.
func warmFleet(b *bench, set []*fn, timeoutMS int64) (*warmed, error) {
	fl, err := startFleet(filepath.Join(b.out, "fleet"))
	if err != nil {
		return nil, err
	}
	reqs := make([]request, len(set))
	for i, f := range set {
		reqs[i] = request{fn: f, timeoutMS: timeoutMS}
	}
	w := &warmed{fl: fl, answers: fl.sendAll(reqs)}
	for _, a := range w.answers {
		w.switches += a.size
	}
	return w, nil
}

// warmSetup warms a fleet reps times from scratch and keeps the last;
// setup_s is the median set-up. miss_mean_ms is the mean warm-up round
// trip of the best set-up: each repeats the same cold solves, so a slower
// one is the shared machine, not the program.
func warmSetup(b *bench, set []*fn, timeoutMS int64, reps int) (*warmed, error) {
	var means []float64
	w, setup, err := medianSetup(reps, func() (*warmed, error) {
		w, err := warmFleet(b, set, timeoutMS)
		if err == nil {
			for _, a := range w.answers {
				b.book(a)
			}
			means = append(means, mean(latencies(w.answers, all)))
		}
		return w, err
	}, func(w *warmed) { w.fl.close() })
	if err != nil {
		return nil, err
	}
	if !b.traced {
		b.set("setup_s", setup.Seconds(), "s")
		b.set("miss_mean_ms", quantile(means, 0), "ms")
		b.set("switches", float64(w.switches), "count")
	}
	return w, nil
}

func runWarmHits(b *bench) error {
	gen := newFuncGen(b.rng, repeatCubes)
	set := make([]*fn, warmSetSize)
	for i := range set {
		f := gen.next(3)
		set[i] = &f
	}
	w, err := warmSetup(b, set, warmTimeoutMS, warmSetupReps)
	if err != nil {
		return err
	}
	defer w.fl.close()
	load := func(d time.Duration) func() []answer {
		return func() []answer { return w.fl.closedLoop(b.seed, d, set, warmTimeoutMS) }
	}
	if b.traced {
		plain := w.fl.measure(nil, load(b.seconds/2))
		rec := newRecorder()
		traced := w.fl.measure(rec, load(b.seconds/2))
		for _, a := range append(plain.answers, traced.answers...) {
			b.book(a)
		}
		printService(b, plain)
		return serviceLayers(b, w.fl, rec, plain, traced, set, warmTimeoutMS)
	}
	win := w.fl.measure(nil, load(b.seconds))
	for _, a := range win.answers {
		b.book(a)
	}
	lat := latencies(win.answers, all)
	b.set("p50_ms", quantile(lat, 0.5), "ms")
	b.set("p99_ms", quantile(lat, 0.99), "ms")
	b.set("goodput_rps", goodput(win, warmLimit), "1/s")
	printService(b, win)
	return nil
}

// printService prints a window's request mix and latency summary, per
// answer tier ("solved" is a fresh synthesis).
func printService(b *bench, w window) {
	tiers := map[string][]answer{}
	for _, a := range w.answers {
		t := a.cached
		if t == "" {
			t = "solved"
		}
		tiers[t] = append(tiers[t], a)
	}
	lat := latencies(w.answers, all)
	fmt.Printf("%s: %d requests in %.1fs (%.0f/s)  p50 %.3f ms  p99 %.3f ms\n",
		b.workload, len(w.answers), w.dur.Seconds(), float64(len(w.answers))/w.dur.Seconds(),
		quantile(lat, 0.5), quantile(lat, 0.99))
	for _, t := range []string{"mem", "disk", "coalesced", "solved"} {
		if as := tiers[t]; len(as) > 0 {
			l := latencies(as, all)
			fmt.Printf("  %-9s %6d  p25 %8.3f ms  p50 %8.3f ms  p75 %8.3f ms  p99 %8.3f ms\n",
				t, len(as), quantile(l, 0.25), quantile(l, 0.5), quantile(l, 0.75), quantile(l, 0.99))
		}
	}
}
