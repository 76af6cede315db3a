package main

// The end-to-end side: the daemon's real handler on a loopback
// net/http server in this process, set up several times per run, and
// driven by a closed loop of clients that each wait for a reply before
// sending their next op.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mdlog/internal/service"
)

// workload is one generated workload: its pages (or sessions), the
// wrappers the daemon serves, and the oracle for them.
type workload struct {
	name     string
	seed     int64
	sc       scale
	pages    []string
	sessions []session
	defs     []wrapperDef
	oracle   *oracle
}

// op is op i of a stateless workload's stream.
func (w *workload) op(i int) request {
	if w.name == wlCrawl {
		return crawlOp(w.seed, w.sc, i)
	}
	return fleetOp(w.seed, w.sc, i)
}

// daemon is one booted server plus the client that talks to it.
type daemon struct {
	srv    *service.Server
	url    string
	client *http.Client
	stop   context.CancelFunc
	served chan error
}

func (d *daemon) close() error {
	d.stop()
	err := <-d.served
	d.client.CloseIdleConnections()
	return err
}

// do sends one request and returns the status and body.
func (d *daemon) do(r *request, pages []string, buf *bytes.Buffer) (int, []byte, error) {
	body, n := r.reader(pages)
	req, err := http.NewRequest(r.method, d.url+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = n
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// boot starts a daemon with w's wrappers and brings it to the point
// where the first op can be served: the first extraction (for the
// fleet, the fused-set build) and, for live-edit, every client's
// session PUT and first session extractall. The duration is setup_s.
func (w *workload) boot() (*daemon, time.Duration, error) {
	start := time.Now()
	cfg := wrapperConfig(w.defs)
	if w.name == wlCrawl {
		cfg.DocCacheEntries = crawlDocCacheEntries
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &daemon{
		srv:    srv,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}},
		stop:   stop,
		served: make(chan error, 1),
	}
	go func() { d.served <- srv.Serve(ctx, ln) }()
	var buf bytes.Buffer
	switch w.name {
	case wlCrawl, wlFleet:
		// A body no op of the stream sends: marker -1.
		r := w.op(0)
		r.marker = -1
		if err = w.check(d, &r, &buf); err != nil {
			err = fmt.Errorf("first op: %w", err)
		}
	case wlLive:
		for c := range w.sessions {
			if err = w.openSession(d, &w.sessions[c], &buf); err != nil {
				break
			}
		}
	}
	elapsed := time.Since(start)
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return d, elapsed, nil
}

// check sends one stateless op and checks the response against the
// oracle.
func (w *workload) check(d *daemon, r *request, buf *bytes.Buffer) error {
	code, body, err := d.do(r, w.pages, buf)
	if err != nil {
		return err
	}
	return w.checkBody(r, code, body)
}

// openSession PUTs (or re-PUTs) a client's session document and runs
// its first extractall, which builds the incremental state.
func (w *workload) openSession(d *daemon, s *session, buf *bytes.Buffer) error {
	put := s.put()
	code, body, err := d.do(&put, nil, buf)
	if err != nil {
		return err
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d: %.200s", put.path, code, body)
	}
	ex := s.extractAll()
	_, err = w.liveExtract(d, &ex, buf)
	return err
}

// warmLive runs every client's warm-up patches, then reopens its
// session so the timed ops start from a fresh document.
func (w *workload) warmLive(d *daemon) error {
	errs := make([]error, len(w.sessions))
	var wg sync.WaitGroup
	for c := range w.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			var buf bytes.Buffer
			ex := s.extractAll()
			for _, p := range s.warm {
				r := request{method: "PATCH", path: "/documents/" + s.id, base: -1, body: p.body}
				if err := w.livePatch(d, &r, p.edits, &buf); err != nil {
					errs[c] = err
					return
				}
				if _, err := w.liveExtract(d, &ex, &buf); err != nil {
					errs[c] = err
					return
				}
			}
			errs[c] = w.openSession(d, s, &buf)
		}(&w.sessions[c])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// liveExtract sends a session extractall and decodes its answers.
func (w *workload) liveExtract(d *daemon, r *request, buf *bytes.Buffer) ([]resultItem, error) {
	code, body, err := d.do(r, nil, buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, code, body)
	}
	return w.oracle.decodeSet(body)
}

// livePatch sends one PATCH and checks every op applied.
func (w *workload) livePatch(d *daemon, r *request, edits int, buf *bytes.Buffer) error {
	code, body, err := d.do(r, nil, buf)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("PATCH %s: status %d: %.200s", r.path, code, body)
	}
	var resp struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Applied != edits {
		return fmt.Errorf("PATCH %s applied %d of %d edits", r.path, resp.Applied, edits)
	}
	return nil
}

// opRec is one op of a closed-loop run: when it completed (offset
// from the run's start), its latency, and whether it succeeded.
type opRec struct {
	end, lat time.Duration
	ok       bool
}

// phase is the outcome of one closed-loop HTTP run.
type phase struct {
	attempted, failed int64
	ops               []opRec         // in completion order
	lat               []time.Duration // sorted
	wall              time.Duration
	errs              []error // first few failures
	liveOps           []int   // live-edit: ops completed per client
	samples           [][]liveSample
}

// runHTTP drives the daemon for dur with the closed-loop clients
// (and for at least minOps ops in total).
func (w *workload) runHTTP(d *daemon, dur time.Duration) *phase {
	ph := &phase{liveOps: make([]int, clients), samples: make([][]liveSample, clients)}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	record := func(lat time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		ph.ops = append(ph.ops, opRec{end: time.Since(start), lat: lat, ok: err == nil})
		if err != nil {
			ph.failed++
			if len(ph.errs) < 5 {
				ph.errs = append(ph.errs, err)
			}
		}
	}
	deadline := start.Add(dur)
	more := func() bool {
		return time.Now().Before(deadline) || next.Load() < int64(minOps)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			if w.name != wlLive {
				for more() {
					i := int(next.Add(1) - 1)
					r := w.op(i)
					t0 := time.Now()
					code, body, err := d.do(&r, w.pages, &buf)
					lat := time.Since(t0)
					if err == nil {
						err = w.checkBody(&r, code, body)
					}
					record(lat, err)
				}
				return
			}
			s := &w.sessions[c]
			var last liveSample
			for i := 0; more(); i++ {
				if i%liveCycle == 0 && i > 0 {
					// A new cycle: reopen the session (not an op).
					if err := w.openSession(d, s, &buf); err != nil {
						record(0, err)
						break
					}
				}
				next.Add(1)
				ops := liveOps(s, i)
				t0 := time.Now()
				err := w.livePatch(d, &ops[0], s.patch(i).edits, &buf)
				var items []resultItem
				if err == nil {
					items, err = w.liveExtract(d, &ops[1], &buf)
				}
				record(time.Since(t0), err)
				if err != nil {
					break // the session no longer matches its script
				}
				ph.liveOps[c] = i + 1
				last = liveSample{op: i, items: items}
				if isLiveSample(i) {
					ph.samples[c] = append(ph.samples[c], last)
				}
			}
			if n := len(ph.samples[c]); ph.liveOps[c] > 0 && (n == 0 || ph.samples[c][n-1].op != last.op) {
				ph.samples[c] = append(ph.samples[c], last)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for _, op := range ph.ops {
		ph.lat = append(ph.lat, op.lat)
	}
	slices.Sort(ph.lat)
	return ph
}

// windowed splits a run of nominal length dur into n equal windows by
// op completion (the last window also takes the ops that finish after
// dur) and returns each window's throughput and median latency, so a
// run reports medians that a burst of outside load in one window does
// not move.
func (ph *phase) windowed(dur time.Duration, n int) (rps, p50 []float64) {
	width := dur / time.Duration(n)
	for k := 0; k < n; k++ {
		lo, hi := width*time.Duration(k), width*time.Duration(k+1)
		if k == n-1 {
			hi = max(ph.wall, hi)
		}
		var lat []time.Duration
		ok := 0
		for _, op := range ph.ops {
			if op.end >= lo && (op.end < hi || k == n-1) {
				lat = append(lat, op.lat)
				if op.ok {
					ok++
				}
			}
		}
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		rps = append(rps, float64(ok)/(hi-lo).Seconds())
		p50 = append(p50, quantile(lat, 0.5))
	}
	return rps, p50
}

// checkBody is check for an already-received response.
func (w *workload) checkBody(r *request, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, code, body)
	}
	want := w.oracle.expected[r.base]
	if w.name == wlCrawl {
		return checkExtract(body, want[0])
	}
	items, err := w.oracle.decodeSet(body)
	if err != nil {
		return err
	}
	return w.oracle.checkSet(items, want, r.spans)
}

// verifyLive runs the live-edit replay oracle over every client's
// recorded samples, one goroutine per client; a mismatch fails the
// run.
func (w *workload) verifyLive(ph *phase) error {
	errs := make([]error, len(w.sessions))
	var wg sync.WaitGroup
	for c := range w.sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.oracle.checkLive(&w.sessions[c], ph.samples[c])
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
