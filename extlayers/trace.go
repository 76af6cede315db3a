package main

// The per-layer side: a replay of a workload's ops in this process
// through the public function of each layer the daemon's handler calls
// (io.ReadAll, service.HashDoc, html.ParseArena, tree.FromArena, the
// compiled query or fused QuerySet, Document edits, JSON encoding),
// once without and once with spans and counters recorded around those
// calls. The program itself carries no tracing.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	mdlog "mdlog"
	"mdlog/internal/html"
	"mdlog/internal/service"
	"mdlog/internal/tree"
)

// spanRec is one recorded span: a layer call inside one op. Spans of
// one op share Op; Parent is the id of the enclosing span (-1 at the
// op root).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-op counters in memory. Off, it records
// nothing and its calls reduce to running the layer.
type tracer struct {
	on      bool
	t0      time.Time
	spans   []spanRec
	op      int
	root    int
	counts  map[string]float64 // counters of the current op
	samples []map[string]float64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), root: -1} }

// layer runs f as a child span of the current op and records its
// duration, and with alloc its heap allocation, under name.
func (tr *tracer) layer(name string, alloc bool, f func()) (time.Duration, uint64) {
	if !tr.on {
		f()
		return 0, 0
	}
	var a0 uint64
	if alloc {
		a0 = allocated()
	}
	start := time.Since(tr.t0)
	f()
	end := time.Since(tr.t0)
	var bytes uint64
	if alloc {
		bytes = allocated() - a0
	}
	tr.spans = append(tr.spans, spanRec{ID: len(tr.spans), Parent: tr.root, Op: tr.op, Name: name, Start: int64(start), End: int64(end)})
	return end - start, bytes
}

func (tr *tracer) beginOp(i int) {
	tr.op = i
	if tr.on {
		tr.root = len(tr.spans)
		tr.spans = append(tr.spans, spanRec{ID: tr.root, Parent: -1, Op: i, Name: "op", Start: int64(time.Since(tr.t0))})
		tr.counts = map[string]float64{}
	}
}

func (tr *tracer) endOp() {
	if tr.on {
		tr.spans[tr.root].End = int64(time.Since(tr.t0))
		tr.samples = append(tr.samples, tr.counts)
		tr.root = -1
	}
}

// set records a counter of the current op.
func (tr *tracer) set(name string, v float64) {
	if tr.on {
		tr.counts[name] = v
	}
}

// selfTimes returns each span's duration minus the part its children
// cover (children of one span never overlap: layers run in sequence).
func (tr *tracer) selfTimes() []int64 {
	self := make([]int64, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write stores the spans as JSON lines, then one line per layer with
// its total self time.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := tr.selfTimes()
	byLayer := map[string]int64{}
	for i, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
		byLayer[s.Name] += self[i]
	}
	names := make([]string, 0, len(byLayer))
	for n := range byLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]any{"layer": n, "self_ns": byLayer[n]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-runs a workload's ops in process on its own compiled
// wrappers and state.
type replayer struct {
	w   *workload
	ctx context.Context
	tr  *tracer

	queries []*mdlog.CompiledQuery // one per w.defs entry
	set     *mdlog.QuerySet        // fleet-mixed and live-edit

	// fleet-mixed: the replay's own content-hash dedup, bounded like
	// the daemon's.
	trees map[service.DocHash]*mdlog.Tree
	lru   []service.DocHash

	doc *mdlog.Document // live-edit: client 0's session

	// memoHits / memoRuns sum the members' Stats.CacheHits and Runs
	// over the traced ops.
	memoHits, memoRuns int64
}

// compileFleet compiles w's wrappers as the daemon's registry does and,
// for the set workloads, fuses them; it reports compile time per
// language and fuse time.
func compileFleet(w *workload) ([]*mdlog.CompiledQuery, *mdlog.QuerySet, map[string]float64, error) {
	qs := make([]*mdlog.CompiledQuery, len(w.defs))
	named := make([]mdlog.NamedQuery, len(w.defs))
	m := map[string]float64{}
	for i, d := range w.defs {
		q, err := service.WrapperSpec{Lang: d.lang, Source: d.src}.Compile()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compiling %s: %w", d.name, err)
		}
		st := q.Stats()
		m[langModule(d.lang)+".compile_ms"] += ms(st.Parse + st.Compile)
		rep := q.OptStats()
		m["opt.rules_before"] += float64(rep.RulesBefore)
		m["opt.rules_after"] += float64(rep.RulesAfter)
		qs[i], named[i] = q, mdlog.NamedQuery{Name: d.name, Query: q}
	}
	if w.name == wlCrawl {
		return qs, nil, m, nil
	}
	start := time.Now()
	set, err := mdlog.NewNamedQuerySet(named...)
	if err != nil {
		return nil, nil, nil, err
	}
	m["opt.fuse_ms"] = ms(time.Since(start))
	rep := set.FuseStats()
	m["opt.fused_members"] = float64(set.FusedLen())
	m["opt.fused_rules_out"] = float64(rep.RulesOut)
	m["opt.cse_preds"] = float64(rep.CSEPreds)
	for _, p := range set.Plans() {
		if p.Subsumed {
			m["opt.subsumed_members"]++
		}
	}
	return qs, set, m, nil
}

// langModule names the package that compiles a language.
func langModule(l mdlog.Language) string {
	switch l {
	case mdlog.LangSpanner:
		return "span"
	case mdlog.LangTMNF:
		return "datalog"
	}
	return l.String()
}

func newReplayer(w *workload, tr *tracer) (*replayer, error) {
	qs, set, _, err := compileFleet(w)
	if err != nil {
		return nil, err
	}
	r := &replayer{w: w, ctx: context.Background(), tr: tr, queries: qs, set: set, trees: map[service.DocHash]*mdlog.Tree{}}
	return r, nil
}

// openSession starts a live-edit cycle on a fresh parse of client 0's
// document and builds its incremental state (not part of any op).
func (r *replayer) openSession() error {
	r.doc = mdlog.NewDocument(html.Parse(r.w.sessions[0].html))
	for _, res := range r.set.RunIncremental(r.ctx, r.doc) {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// run replays ops 0.. until n ops (n > 0) or dur (n == 0) and returns
// each op's duration.
func (r *replayer) run(n int, dur time.Duration) ([]time.Duration, error) {
	var durs []time.Duration
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		if n > 0 && i >= n || n == 0 && i >= minOps && !time.Now().Before(deadline) {
			break
		}
		if r.w.name == wlLive && i%liveCycle == 0 {
			if err := r.openSession(); err != nil {
				return durs, err
			}
		}
		var d time.Duration
		var err error
		switch r.w.name {
		case wlCrawl:
			d, err = r.crawlOp(i)
		case wlFleet:
			d, err = r.fleetOp(i)
		case wlLive:
			d, err = r.liveOp(i)
		}
		if err != nil {
			return durs, fmt.Errorf("replay op %d: %w", i, err)
		}
		durs = append(durs, d)
	}
	return durs, nil
}

// readHash is the request-body layers shared by the stateless ops.
func (r *replayer) readHash(b []byte) ([]byte, service.DocHash) {
	var body []byte
	var h service.DocHash
	d, _ := r.tr.layer("service.read", false, func() { body, _ = io.ReadAll(bytes.NewReader(b)) })
	r.tr.set("service.read_ms", ms(d))
	d, _ = r.tr.layer("service.hash", false, func() { h = service.HashDoc(body) })
	r.tr.set("service.hash_ms", ms(d))
	return body, h
}

// parse is html.ParseArena plus the tree.FromArena pointer view, as
// the daemon's dedup path parses a body.
func (r *replayer) parse(body []byte) *mdlog.Tree {
	var a *tree.Arena
	d, b := r.tr.layer("html.parse", true, func() { a, _ = html.ParseArena(strings.NewReader(string(body))) })
	nodes := float64(a.Len())
	r.tr.set("html.nodes_per_op", nodes)
	r.tr.set("html.parse_ns_per_node", float64(d)/nodes)
	r.tr.set("html.parse_bytes_per_node", float64(b)/nodes)
	var t *mdlog.Tree
	d, b = r.tr.layer("tree.view", true, func() { t = tree.FromArena(a) })
	r.tr.set("tree.view_ns_per_node", float64(d)/nodes)
	r.tr.set("tree.view_bytes_per_node", float64(b)/nodes)
	return t
}

// encode is the handler's JSON encoding of a response value.
func (r *replayer) encode(v any) {
	var buf bytes.Buffer
	d, _ := r.tr.layer("service.encode", false, func() {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(v) // a bytes.Buffer does not fail
	})
	r.tr.set("service.encode_ms", ms(d))
	r.tr.set("service.encode_bytes", float64(buf.Len()))
}

func (r *replayer) crawlOp(i int) (time.Duration, error) {
	req := crawlOp(r.w.seed, r.w.sc, i)
	b := req.bytes(r.w.pages)
	q := r.queries[0]
	var t *mdlog.Tree
	var ids []int
	var st mdlog.Stats
	var err error
	start := time.Now()
	r.tr.beginOp(i)
	body, _ := r.readHash(b)
	t = r.parse(body)
	_, alloc := r.tr.layer("eval.run", true, func() { ids, st, err = q.SelectStats(r.ctx, t) })
	if err == nil {
		r.encode(map[string]any{"wrapper": r.w.defs[0].name, "nodes": ids, "stats": map[string]any{
			"facts": st.Facts, "spans": st.Spans, "cache_hits": st.CacheHits,
			"materialize_ns": int64(st.Materialize), "eval_ns": int64(st.Eval), "engine": st.Engine,
		}})
	}
	r.tr.endOp()
	dur := time.Since(start)
	if err != nil {
		return dur, err
	}
	r.evalCounts(alloc, st.Materialize, st.Eval, st.Facts, 0)
	r.memoHits += st.CacheHits
	r.memoRuns += st.Runs
	q.Cache().Forget(t)
	if want := r.w.oracle.expected[req.base][0].ids; !slices.Equal(ids, want) {
		return dur, fmt.Errorf("selected %d nodes, oracle expects %d", len(ids), len(want))
	}
	return dur, nil
}

// evalCounts records the evaluation layer's per-op counters.
func (r *replayer) evalCounts(alloc uint64, mat, ev time.Duration, facts int64, unfused time.Duration) {
	r.tr.set("eval.materialize_ms", ms(mat))
	r.tr.set("eval.eval_ms", ms(ev))
	r.tr.set("eval.bytes_per_op", float64(alloc))
	r.tr.set("eval.facts_per_op", float64(facts))
	r.tr.set("eval.unfused_ms", ms(unfused))
}

// setItems renders SetResults as the handler's per-wrapper items.
func setItems(res []mdlog.SetResult, spans bool) []map[string]any {
	items := make([]map[string]any, len(res))
	for i, sr := range res {
		item := map[string]any{"wrapper": sr.Name}
		switch {
		case sr.Err != nil:
			item["error"] = sr.Err.Error()
		case spans && sr.Spans != nil:
			item["spans"] = sr.Spans
		case spans:
			item["spans"] = []any{}
		case sr.IDs != nil:
			item["nodes"] = sr.IDs
		default:
			item["nodes"] = []int{}
		}
		items[i] = item
	}
	return items
}

// setCounts sums the members' attributed stats (fused members share
// the pass evenly, so the sum is the pass). Evaluation timings are
// recorded only for ops that evaluate: an op answered from the result
// memo would mix a second, near-zero mode into the medians.
func (r *replayer) setCounts(alloc uint64, res []mdlog.SetResult, evaluated bool) {
	var mat, ev, unfused time.Duration
	var facts int64
	for _, sr := range res {
		r.memoHits += sr.Stats.CacheHits
		r.memoRuns += sr.Stats.Runs
	}
	if !evaluated {
		return
	}
	for _, sr := range res {
		mat += sr.Stats.Materialize
		ev += sr.Stats.Eval
		facts += sr.Stats.Facts
		if sr.Stats.FusedRuns == 0 {
			unfused += sr.Stats.Materialize + sr.Stats.Eval
		}
	}
	r.evalCounts(alloc, mat, ev, facts, unfused)
}

// replayCacheEntries bounds the replay's dedup map like the daemon's
// default cache; lru lists its hashes, least recently used first.
const replayCacheEntries = service.DefaultDocCacheEntries

func (r *replayer) fleetOp(i int) (time.Duration, error) {
	req := fleetOp(r.w.seed, r.w.sc, i)
	b := req.bytes(r.w.pages)
	var res []mdlog.SetResult
	start := time.Now()
	r.tr.beginOp(i)
	body, h := r.readHash(b)
	t, hit := r.trees[h]
	if hit {
		r.lru = slices.DeleteFunc(r.lru, func(x service.DocHash) bool { return x == h })
	} else {
		t = r.parse(body)
		r.trees[h] = t
	}
	r.lru = append(r.lru, h)
	_, alloc := r.tr.layer("eval.run", true, func() { res = r.set.Run(r.ctx, t) })
	r.encode(map[string]any{"wrappers": r.set.Len(), "fused": r.set.FusedLen(), "results": setItems(res, req.spans)})
	r.tr.endOp()
	dur := time.Since(start)
	r.setCounts(alloc, res, !hit)
	if r.tr.on {
		r.spanProbe(t)
	}
	if len(r.lru) > replayCacheEntries {
		old := r.lru[0]
		r.lru = r.lru[1:]
		r.set.Cache().Forget(r.trees[old])
		delete(r.trees, old)
	}
	return dur, r.w.oracle.checkRun(res, r.w.oracle.expected[req.base], req.spans)
}

// spanProbe times span enumeration alone: each spanner member runs
// SpansStats twice, and the second run finds its node part memoized.
// It runs outside the op's span.
func (r *replayer) spanProbe(t *mdlog.Tree) {
	var enum time.Duration
	var spans int64
	for i, d := range r.w.defs {
		if d.lang != mdlog.LangSpanner {
			continue
		}
		q := r.queries[i]
		if _, _, err := q.SpansStats(r.ctx, t); err != nil {
			continue
		}
		_, st, err := q.SpansStats(r.ctx, t)
		if err == nil {
			enum += st.Eval
			spans += st.Spans
		}
		q.Cache().Forget(t)
	}
	r.tr.set("span.enum_ms", ms(enum))
	r.tr.set("span.spans_per_op", float64(spans))
}

func (r *replayer) liveOp(i int) (time.Duration, error) {
	s := &r.w.sessions[0]
	var req patchReq
	var err error
	var res []mdlog.SetResult
	var inc0 mdlog.DocumentStats
	if r.tr.on {
		inc0 = r.doc.Stats()
	}
	start := time.Now()
	r.tr.beginOp(i)
	d, _ := r.tr.layer("service.patch_decode", false, func() { err = json.Unmarshal(s.patch(i).body, &req) })
	r.tr.set("service.patch_decode_ms", ms(d))
	if err == nil {
		d, _ = r.tr.layer("tree.mutate", false, func() { err = applyPatch(r.doc, &req) })
		r.tr.set("tree.mutate_us_per_edit", float64(d)/1e3/float64(max(1, len(req.Ops))))
	}
	var alloc uint64
	if err == nil {
		d, alloc = r.tr.layer("eval.inc", true, func() { res = r.set.RunIncremental(r.ctx, r.doc) })
		ds := r.doc.Stats()
		info := map[string]any{"id": s.id, "generation": ds.Generation, "nodes": ds.Nodes, "live": ds.Live, "edits": ds.Edits,
			"wrappers": r.set.Len(), "fused": r.set.FusedLen(), "results": setItems(res, false)}
		r.encode(info)
	}
	r.tr.endOp()
	dur := time.Since(start)
	if err != nil {
		return dur, err
	}
	if r.tr.on {
		inc := r.doc.Stats().Inc
		r.tr.set("eval.inc_ms", ms(d))
		r.tr.set("eval.inc_applies_per_op", float64(inc.Applies-inc0.Inc.Applies))
		r.tr.set("eval.inc_fallbacks_per_op", float64(inc.Fallbacks-inc0.Inc.Fallbacks))
		r.tr.set("eval.inc_overdeleted_per_op", float64(inc.Overdeleted-inc0.Inc.Overdeleted))
		r.tr.set("eval.inc_rederived_per_op", float64(inc.Rederived-inc0.Inc.Rederived))
	}
	r.setCounts(alloc, res, true)
	for _, sr := range res {
		if sr.Err != nil {
			return dur, fmt.Errorf("wrapper %s failed: %w", sr.Name, sr.Err)
		}
	}
	if isLiveSample(i) {
		want, err := r.w.oracle.liveAnswers(r.doc)
		if err != nil {
			return dur, err
		}
		return dur, r.w.oracle.checkRun(res, want, false)
	}
	return dur, nil
}
