package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lattice-tools/janus/internal/front"
	"github.com/lattice-tools/janus/internal/memo"
	"github.com/lattice-tools/janus/internal/service"
)

// conns is the load's concurrency: one connection per core of the
// 2-core machine the benchmark is sized for, as are the two solver
// workers (one per backend).
const conns = 2

// fleet is the served topology, in-process on loopback: janusfront in
// front of two janusd backends, each with its own disk cache tier and the
// daemons' default configuration apart from one worker each.
type fleet struct {
	dir      string
	backends []*service.Server
	front    *front.Front
	https    []*http.Server
	serving  sync.WaitGroup
	url      string
	client   *http.Client
	// rec is the traced half's span recorder; nil while untraced. The
	// tier wrappers read it per request.
	rec atomic.Pointer[recorder]
}

// startFleet brings the topology up from scratch: cold memo, empty cache
// directories under dir.
func startFleet(dir string) (*fleet, error) {
	memo.Reset()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := service.NewServer(service.Config{
			Workers:  1,
			CacheDir: filepath.Join(dir, fmt.Sprintf("backend%d", i)),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		url, err := f.serve(f.wrap("service.Handler", "front.Handler", srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	fr, err := front.New(front.Config{Backends: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = fr
	if f.url, err = f.serve(f.wrap("front.Handler", "client.request", fr.Handler())); err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed after close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener, the front's health poller and the backends'
// workers, waits for all of them, and removes the cache directories.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for i := len(f.https) - 1; i >= 0; i-- {
		f.https[i].Shutdown(ctx) //nolint:errcheck // best effort at exit
	}
	if f.front != nil {
		f.front.Close()
	}
	for _, b := range f.backends {
		b.Shutdown(ctx) //nolint:errcheck // best effort at exit
	}
	f.serving.Wait()
	os.RemoveAll(f.dir) //nolint:errcheck // scratch state
}

// wrap records a span named layer around one tier's handler for every
// traced synthesis request, parented on the tier above through the
// request's X-Request-Id.
func (f *fleet) wrap(layer, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := f.rec.Load()
		id := r.Header.Get("X-Request-Id")
		if rec == nil || id == "" || r.URL.Path != "/v1/synthesize" {
			h.ServeHTTP(w, r)
			return
		}
		sp := rec.start(layer, rec.lookup(id, parent))
		rec.register(id, layer, sp)
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// answer is one synthesis round trip as the client saw it.
type answer struct {
	write   bool // a new function (mixed) rather than a repeat
	lat     time.Duration
	status  int
	cached  string
	size    int
	partial bool
	ok      bool // HTTP 200, status done, lattice computes the target
	err     error
}

// request describes one synthesis to send.
type request struct {
	fn        *fn
	timeoutMS int64
	write     bool
	due       time.Time // open loop: when it was due to be sent
}

// synthesize posts one request to the front and checks the answer. The
// latency runs from due (or from the send when due is zero).
func (f *fleet) synthesize(id string, rq request) answer {
	if rq.due.IsZero() {
		rq.due = time.Now()
	}
	rec := f.rec.Load()
	sp := rec.start("client.request", nil)
	rec.register(id, "client.request", sp)
	status, raw, err := f.post(id, rq)
	sp.End()
	rec.release(id, "client.request", "front.Handler", "service.Handler")
	a := answer{write: rq.write, lat: time.Since(rq.due), status: status}
	if err != nil {
		a.err = err
		return a
	}
	var out service.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		a.err = fmt.Errorf("decode answer: %w", err)
		return a
	}
	a.cached = out.Cached
	if status != http.StatusOK || out.Status != service.StatusDone || out.Result == nil {
		a.err = fmt.Errorf("HTTP %d, status %q: %s", status, out.Status, out.Error)
		return a
	}
	a.size, a.partial = out.Result.Size, out.Result.Partial
	grid, err := parseServiceLattice(out.Result.Lattice, rq.fn.inputs)
	switch {
	case err != nil:
		a.err = err
	case len(grid) != out.Result.M || len(grid[0]) != out.Result.N || out.Result.Size != out.Result.M*out.Result.N:
		a.err = errors.New("lattice shape disagrees with m, n and size")
	case !latticeComputes(grid, rq.fn.table):
		a.err = errors.New("lattice does not compute the target")
	default:
		a.ok = true
	}
	return a
}

// post sends the synthesis request and reads the whole answer.
func (f *fleet) post(id string, rq request) (int, []byte, error) {
	body, err := json.Marshal(service.Request{PLA: rq.fn.pla, TimeoutMS: rq.timeoutMS})
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, f.url+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// book counts an answer against the run; a wrong lattice also marks the
// run incorrect.
func (b *bench) book(a answer) {
	b.outcome(a.ok)
	if !a.ok {
		if a.status == http.StatusOK {
			b.wrong++
		}
		fmt.Fprintf(os.Stderr, "%s: request failed: %v\n", b.workload, a.err)
	}
}
