package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

const (
	// mixedReadSet repeats outnumber what the two backends' 256-entry
	// memory LRUs hold together, so some reads come from the disk tier.
	mixedReadSet = 640
	// mixedSetupReps is how many times set-up warms the fleet; each takes
	// about 2 s.
	mixedSetupReps = 3
	// mixedRate is the open loop's fixed arrival rate, per second, and
	// every writeEvery-th arrival is a write: a new 5-input function.
	// Both are chosen, not observed. On a 2-core machine a write's solve
	// takes about 40 ms of worker time, so the two workers could take
	// about 50 writes/s; 10 writes/s keep them about 20% busy. That lifts
	// the repeats' p99 from about 8 ms with no writes to about 13 ms,
	// short of the queueing that at 20 writes/s lifts it past 50 ms and
	// makes the generator run late (README.md has the measurements).
	mixedRate  = 40
	writeEvery = 4
	// writePoolSeed fixes the sequence of new functions. Cold-solve times
	// of random 5-input functions span three orders of magnitude, and a
	// write's latency also depends on which slow writes it queues behind,
	// so a per-seed draw of writes or of their slots would swamp every
	// latency figure with the draw itself. The seed draws the read set and
	// the sequence of reads instead.
	writePoolSeed = 5
	// mixedReadTimeoutMS is the repeats' budget (the set solves well
	// inside it); mixedWriteTimeoutMS caps a new function's solve, so the
	// heavy tail turns into partial answers.
	mixedReadTimeoutMS  = 10000
	mixedWriteTimeoutMS = 100
	// mixedLimit is the latency limit for goodput.
	mixedLimit = time.Second
	// A run is invalid, not slow, when the dispatcher ran more than
	// maxLagP99 late or more than maxBacklog arrivals were still waiting
	// for a connection when the schedule ended.
	maxLagP99  = 50 * time.Millisecond
	maxBacklog = mixedRate
)

// openRun is one open-loop phase.
type openRun struct {
	answers []answer
	lag     []time.Duration // dispatcher lateness per arrival
	backlog int             // arrivals due but not sent when the schedule ended
}

// openLoop sends reqs at mixedRate, starting now, regardless of
// how fast answers come back; up to conns requests are in flight and the
// rest wait in arrival order. Latency counts from each due time.
func (f *fleet) openLoop(reqs []request) openRun {
	run := openRun{answers: make([]answer, len(reqs)), lag: make([]time.Duration, len(reqs))}
	queue := make(chan int, len(reqs)) // holds every arrival: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				run.answers[i] = f.synthesize(nextRequestID(), reqs[i])
			}
		}()
	}
	start := time.Now()
	interval := time.Second / mixedRate
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		reqs[i].due = due
		run.lag[i] = time.Since(due)
		queue <- i
	}
	run.backlog = len(queue)
	close(queue)
	wg.Wait()
	return run
}

// mixedRequests draws the arrival sequence of d seconds: repeats of the
// read set, and at every writeEvery-th arrival the next function of the
// write pool, never sent before.
func mixedRequests(b *bench, pool *funcGen, reads []*fn, d time.Duration) []request {
	n := int(d.Seconds() * mixedRate)
	reqs := make([]request, n)
	for i := range reqs {
		if i%writeEvery == writeEvery/2 {
			f := pool.next(5)
			reqs[i] = request{fn: &f, timeoutMS: mixedWriteTimeoutMS, write: true}
		} else {
			reqs[i] = request{fn: reads[b.rng.Intn(len(reads))], timeoutMS: mixedReadTimeoutMS}
		}
	}
	return reqs
}

func runMixed(b *bench) error {
	gen := newFuncGen(b.rng, repeatCubes)
	reads := make([]*fn, mixedReadSet)
	for i := range reads {
		f := gen.next(4)
		reads[i] = &f
	}
	pool := newFuncGen(rand.New(rand.NewSource(writePoolSeed)), 6)
	var halves [][]request
	if b.traced {
		halves = [][]request{mixedRequests(b, pool, reads, b.seconds/2), mixedRequests(b, pool, reads, b.seconds/2)}
	} else {
		halves = [][]request{mixedRequests(b, pool, reads, b.seconds)}
	}
	w, err := warmSetup(b, reads, mixedReadTimeoutMS, mixedSetupReps)
	if err != nil {
		return err
	}
	defer w.fl.close()
	var wins []window
	var rec *recorder
	for i, reqs := range halves {
		if i == 1 {
			rec = newRecorder()
		}
		var run openRun
		wins = append(wins, w.fl.measure(rec, func() []answer {
			run = w.fl.openLoop(reqs)
			return run.answers
		}))
		for _, a := range run.answers {
			b.book(a)
		}
		lag := quantile(ms(run.lag), 0.99)
		printService(b, wins[i])
		fmt.Printf("mixed: generator lag p99 %.3f ms, backlog at end %d, workers %.1f%% busy\n",
			lag, run.backlog, 100*busyShare(wins[i], len(w.fl.backends)))
		if lag > float64(maxLagP99)/1e6 || run.backlog > maxBacklog {
			return fmt.Errorf("open loop fell behind (lag p99 %.1f ms, backlog %d): run invalid", lag, run.backlog)
		}
		if b.traced {
			b.set("load.lag_p99_ms", lag, "ms")
			b.set("load.backlog_end", float64(run.backlog), "count")
		}
	}
	if b.traced {
		return serviceLayers(b, w.fl, rec, wins[0], wins[1], reads, mixedReadTimeoutMS)
	}
	win := wins[0]
	lat := latencies(win.answers, all)
	b.set("p50_ms", quantile(lat, 0.5), "ms")
	b.set("p99_ms", quantile(lat, 0.99), "ms")
	b.set("miss_mean_ms", mean(latencies(win.answers, isWrite)), "ms")
	b.set("goodput_rps", goodput(win, mixedLimit), "1/s")
	return nil
}
