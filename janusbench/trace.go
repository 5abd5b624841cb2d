package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/lattice-tools/janus/internal/obsv"
)

// recorder keeps the traced run's spans in memory: an obsv.Tracer writes
// them as JSONL into a buffer, which is read back and written out once the
// run is over. Spans of one request share its X-Request-Id through the
// open map: each tier's span registers itself under (request id, layer) so
// the next tier down can name it as parent. A nil recorder records
// nothing, and so do the nil spans it hands out.
type recorder struct {
	buf bytes.Buffer
	t   *obsv.Tracer

	mu   sync.Mutex
	open map[string]*obsv.Span // request id + "/" + layer → span
}

func newRecorder() *recorder {
	r := &recorder{open: map[string]*obsv.Span{}}
	r.t = obsv.NewTracer(&r.buf)
	return r
}

// tracer returns the recorder's tracer, nil on a nil recorder.
func (r *recorder) tracer() *obsv.Tracer {
	if r == nil {
		return nil
	}
	return r.t
}

// start opens a span under parent, a root when parent is nil.
func (r *recorder) start(name string, parent *obsv.Span) *obsv.Span {
	return obsv.Start(r.tracer(), parent, name)
}

// register publishes sp as the (reqID, layer) span; release forgets it.
func (r *recorder) register(reqID, layer string, sp *obsv.Span) {
	if r == nil || sp == nil {
		return
	}
	r.mu.Lock()
	r.open[reqID+"/"+layer] = sp
	r.mu.Unlock()
}

func (r *recorder) lookup(reqID, layer string) *obsv.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open[reqID+"/"+layer]
}

func (r *recorder) release(reqID string, layers ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, l := range layers {
		delete(r.open, reqID+"/"+l)
	}
	r.mu.Unlock()
}

// records reads back every span ended so far.
func (r *recorder) records() ([]obsv.Record, error) {
	if err := r.t.Err(); err != nil {
		return nil, err
	}
	return obsv.ReadTrace(bytes.NewReader(r.buf.Bytes()))
}

// durations returns every span's duration, per span name.
func durations(recs []obsv.Record) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, rec := range recs {
		out[rec.Span] = append(out[rec.Span], time.Duration(rec.DurNS))
	}
	return out
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of its interval that its children cover.
func selfTimes(recs []obsv.Record) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	kids := children(recs)
	for _, rec := range recs {
		var self time.Duration
		for _, g := range gaps(rec, kids[rec.ID]) {
			self += g[1].Sub(g[0])
		}
		out[rec.Span] = append(out[rec.Span], self)
	}
	return out
}

func children(recs []obsv.Record) map[uint64][]obsv.Record {
	kids := map[uint64][]obsv.Record{}
	for _, rec := range recs {
		if rec.Parent != 0 {
			kids[rec.Parent] = append(kids[rec.Parent], rec)
		}
	}
	return kids
}

// gaps returns the sub-intervals of rec that none of kids covers.
func gaps(rec obsv.Record, kids []obsv.Record) [][2]time.Time {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var out [][2]time.Time
	at := rec.Start
	for _, k := range kids {
		if k.Start.After(at) {
			out = append(out, [2]time.Time{at, minTime(k.Start, rec.End)})
		}
		if k.End.After(at) {
			at = k.End
		}
		if !at.Before(rec.End) {
			return out
		}
	}
	if rec.End.After(at) {
		out = append(out, [2]time.Time{at, rec.End})
	}
	return out
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// writeRecords validates the spans and writes them as JSONL. Every span
// that has children also gets one "<name>.self" child per uncovered gap,
// so the per-name table of `tracesum` shows self times next to the totals.
func writeRecords(path string, recs []obsv.Record) (int, error) {
	var next uint64
	for _, rec := range recs {
		next = max(next, rec.ID)
	}
	kids := children(recs)
	for _, rec := range recs {
		if len(kids[rec.ID]) == 0 {
			continue
		}
		for _, g := range gaps(rec, kids[rec.ID]) {
			next++
			recs = append(recs, obsv.Record{Span: rec.Span + ".self", ID: next, Parent: rec.ID,
				Start: g[0], End: g[1], DurNS: g[1].Sub(g[0]).Nanoseconds()})
		}
	}
	if err := obsv.ValidateRecords(recs); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return 0, fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write trace: %w", err)
	}
	return len(recs), f.Close()
}
