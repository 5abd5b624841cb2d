package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/obsv"
	"github.com/lattice-tools/janus/internal/pla"
	"github.com/lattice-tools/janus/internal/service"
)

// reqSeq numbers the X-Request-Id of every request the load sends.
var reqSeq atomic.Int64

func nextRequestID() string { return fmt.Sprintf("jb-%d", reqSeq.Add(1)) }

// sendAll sends every request once over the closed loop's connections.
func (f *fleet) sendAll(reqs []request) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				out[i] = f.synthesize(nextRequestID(), reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns clients busy for d: each sends its next request
// as soon as the previous one is answered, drawing repeats from set with
// its own seeded generator.
func (f *fleet) closedLoop(seed int64, d time.Duration, set []*fn, timeoutMS int64) []answer {
	stop := time.Now().Add(d)
	var mu sync.Mutex
	var out []answer
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var mine []answer
			for time.Now().Before(stop) {
				rq := request{fn: set[rng.Intn(len(set))], timeoutMS: timeoutMS}
				mine = append(mine, f.synthesize(nextRequestID(), rq))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(rand.New(rand.NewSource(seed + int64(w))))
	}
	wg.Wait()
	return out
}

// window is the measurement of one load phase.
type window struct {
	answers []answer
	dur     time.Duration
	alloc   uint64 // bytes the whole process allocated during the phase
	counts  func(string) int64
	memo    memo.Stats
	flight  []service.FlightEntry
}

// measure runs load and records what the process did meanwhile, the
// backends' flight-recorder entries included. A non-nil recorder traces
// the load.
func (f *fleet) measure(rec *recorder, load func() []answer) window {
	f.rec.Store(rec)
	defer f.rec.Store(nil)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := obsv.Default.Snapshot()
	memo0 := memo.Snapshot()
	poll := f.pollFlight()
	start := time.Now()
	answers := load()
	w := window{answers: answers, dur: time.Since(start)}
	w.flight = poll()
	w.memo = memo.Snapshot().Sub(memo0)
	w.counts = delta(before, obsv.Default.Snapshot())
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return w
}

// pollFlight reads every backend's flight recorder once a second until the
// returned function is called, which returns once each entry recorded in
// between. Entries already in the rings at the start are left out.
func (f *fleet) pollFlight() func() []service.FlightEntry {
	seen := map[string]service.FlightEntry{}
	collect := func() {
		for i, s := range f.backends {
			for _, e := range s.Flight().Entries {
				seen[fmt.Sprintf("%d/%s/%s", i, e.RequestID, e.JobID)] = e
			}
		}
	}
	collect()
	before := make(map[string]bool, len(seen))
	for k := range seen {
		before[k] = true
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				collect()
			}
		}
	}()
	return func() []service.FlightEntry {
		close(stop)
		<-done
		collect()
		var out []service.FlightEntry
		for k, e := range seen {
			if !before[k] {
				out = append(out, e)
			}
		}
		return out
	}
}

// delta returns a reader of counter growth between two snapshots.
func delta(before, after obsv.Snapshot) func(string) int64 {
	return func(name string) int64 { return after.Get(name) - before.Get(name) }
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// latencies returns the latencies, in ms, of the answers pick selects.
func latencies(as []answer, pick func(answer) bool) []float64 {
	var out []float64
	for _, a := range as {
		if pick(a) {
			out = append(out, float64(a.lat)/1e6)
		}
	}
	return out
}

func all(answer) bool { return true }

func isWrite(a answer) bool { return a.write }

// goodput is answers that passed the check within limit, per second.
func goodput(w window, limit time.Duration) float64 {
	n := 0
	for _, a := range w.answers {
		if a.ok && a.lat <= limit {
			n++
		}
	}
	return float64(n) / w.dur.Seconds()
}

// serviceLayers reports the service-path layers of a traced run: plain is
// the untraced half, traced the traced half.
func serviceLayers(b *bench, fl *fleet, rec *recorder, plain, traced window, set []*fn, timeoutMS int64) error {
	both := append(append([]answer(nil), plain.answers...), traced.answers...)
	var mem, disk, coalesced, shed, writes, partial int64
	for _, a := range both {
		switch a.cached {
		case "mem":
			mem++
		case "disk":
			disk++
		case "coalesced":
			coalesced++
		}
		if a.status == http.StatusTooManyRequests {
			shed++
		}
		if a.write {
			writes++
			if a.partial {
				partial++
			}
		}
	}
	n := int64(len(both))
	b.set("service.mem_hit_share", ratio(mem, n), "ratio")
	b.set("service.disk_hit_share", ratio(disk, n), "ratio")
	b.set("service.coalesced_share", ratio(coalesced, n), "ratio")
	b.set("service.shed", float64(shed), "count")
	b.set("partial_share", ratio(partial, writes), "ratio")
	b.set("hit_p99_ms", quantile(latencies(plain.answers, func(a answer) bool { return !a.write }), 0.99), "ms")
	b.set("miss_p50_ms", quantile(latencies(plain.answers, isWrite), 0.5), "ms")

	var waits, solves []float64
	for _, e := range append(append([]service.FlightEntry(nil), plain.flight...), traced.flight...) {
		if e.JobID != "" && e.Cached == "" && e.CoalescedInto == "" {
			waits = append(waits, float64(e.QueueWaitNS)/1e6)
			solves = append(solves, float64(e.SolveNS)/1e6)
		}
	}
	b.set("service.queue_wait_p99_ms", quantile(waits, 0.99), "ms")
	b.set("service.solve_p50_ms", quantile(solves, 0.5), "ms")
	b.set("service.worker_busy_share", busyShare(plain, len(fl.backends)), "ratio")

	// The solver layers count both halves.
	sum := func(name string) int64 { return plain.counts(name) + traced.counts(name) }
	solverLayers(b, sum)
	b.set("core.lm_solves", float64(sum("janus_core_lm_solved_total")), "count")
	hits := plain.memo.PathHits + traced.memo.PathHits
	b.set("memo.paths_hit_rate", ratio(hits, hits+plain.memo.PathMisses+traced.memo.PathMisses), "ratio")
	b.set("alloc_kb_per_req", float64(plain.alloc)/1024/float64(len(plain.answers)), "kB")

	recs, err := rec.records()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b.set("front.self_us", medianUS(selfTimes(recs)["front.Handler"]), "us")
	b.set("service.handler_us", medianUS(durations(recs)["service.Handler"]), "us")
	p50 := func(w window) float64 { return quantile(latencies(w.answers, all), 0.5) }
	b.set("trace.overhead_pct", 100*(p50(traced)-p50(plain))/p50(plain), "%")

	if err := replayServiceLayers(b, fl, rec, set, timeoutMS); err != nil {
		return err
	}
	return writeTrace(b, rec)
}

// replayServiceLayers times the request path's layers one call at a time,
// through their public functions, on (up to 128 of) the workload's own
// repeats: pla.Parse, service.FnKeyOf and Server.CacheLookup on the key's
// owner.
func replayServiceLayers(b *bench, fl *fleet, rec *recorder, set []*fn, timeoutMS int64) error {
	const reps = 10
	set = set[:min(len(set), 128)]
	owner := make([]*service.Server, len(set))
	keys := make([]string, len(set))
	for i, f := range set {
		k, err := service.FnKeyOf(service.Request{PLA: f.pla, TimeoutMS: timeoutMS})
		if err != nil {
			return fmt.Errorf("fn key: %w", err)
		}
		keys[i] = k
		for _, s := range fl.backends {
			if _, ok := s.CacheLookup(k, timeoutMS, 0); ok {
				owner[i] = s
			}
		}
		if owner[i] == nil {
			return fmt.Errorf("no backend holds the answer for key %s", k)
		}
	}
	for r := 0; r < reps; r++ {
		for i, f := range set {
			root := rec.start("replay", nil)
			sp := root.Child("pla.Parse")
			if _, err := pla.Parse(strings.NewReader(f.pla)); err != nil {
				return err
			}
			sp.End()
			sp = root.Child("service.FnKeyOf")
			service.FnKeyOf(service.Request{PLA: f.pla, TimeoutMS: timeoutMS}) //nolint:errcheck // checked above
			sp.End()
			sp = root.Child("Server.CacheLookup")
			owner[i].CacheLookup(keys[i], timeoutMS, 0)
			sp.End()
			root.End()
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, f := range set {
		pla.Parse(strings.NewReader(f.pla)) //nolint:errcheck // parsed above
	}
	runtime.ReadMemStats(&m1)
	recs, err := rec.records()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	durs := durations(recs)
	b.set("pla.parse_us", medianUS(durs["pla.Parse"]), "us")
	b.set("pla.alloc_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(set)), "kB")
	b.set("service.fnkey_us", medianUS(durs["service.FnKeyOf"]), "us")
	b.set("service.cache_lookup_us", medianUS(durs["Server.CacheLookup"]), "us")
	return nil
}

// busyShare is the share of the time of the solver workers, one per
// backend, that went to fresh solves in w, from the backends' flight
// recorders.
func busyShare(w window, workers int) float64 {
	var busy int64
	for _, e := range w.flight {
		if e.JobID != "" && e.Cached == "" && e.CoalescedInto == "" {
			busy += e.SolveNS
		}
	}
	return float64(busy) / (w.dur.Seconds() * 1e9 * float64(workers))
}

func medianUS(ds []time.Duration) float64 { return quantile(ms(ds), 0.5) * 1000 }

// writeTrace writes the traced half's spans next to the run's other state.
func writeTrace(b *bench, rec *recorder) error {
	recs, err := rec.records()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-%d.jsonl", b.workload, b.seed))
	n, err := writeRecords(path, recs)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("trace: %d spans in %s\n", n, path)
	return nil
}
