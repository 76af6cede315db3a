// Command extlayers is EXT-LAYERS, the repository's end-to-end and
// per-layer benchmark of the mdlogd request path. It serves the real
// internal/service handler on a loopback net/http server inside this
// process and drives one of three seeded workloads through it with two
// closed-loop clients; every response is checked against reference
// evaluators. With --trace 1 it also replays the same ops in process
// through each layer's public function, with spans and counters
// recorded around the calls, and reports per-layer metrics.
//
//	go run . --workload crawl-large --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). README.md lists the workloads,
// the metrics and which end-to-end metric each layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	mdlog "mdlog"
	"mdlog/internal/html"
	"mdlog/internal/tree"
)

// endToEnd lists the --trace 0 metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the --trace 1 metrics with their units. Counters are
// per-op means; times and sizes are per-op medians.
var perLayer = []struct{ name, unit string }{
	{"html.parse_ns_per_node", "ns"},
	{"html.parse_bytes_per_node", "B"},
	{"html.nodes_per_op", "count"},
	{"tree.view_ns_per_node", "ns"},
	{"tree.view_bytes_per_node", "B"},
	{"tree.mutate_us_per_edit", "us"},
	{"service.read_ms", "ms"},
	{"service.hash_ms", "ms"},
	{"service.doccache_hit_ratio", "ratio"},
	{"service.doccache_evictions_per_op", "count"},
	{"service.encode_ms", "ms"},
	{"service.encode_bytes", "B"},
	{"service.patch_decode_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"xpath.compile_ms", "ms"},
	{"elog.compile_ms", "ms"},
	{"caterpillar.compile_ms", "ms"},
	{"mso.compile_ms", "ms"},
	{"datalog.compile_ms", "ms"},
	{"span.compile_ms", "ms"},
	{"opt.rules_before", "count"},
	{"opt.rules_after", "count"},
	{"opt.fuse_ms", "ms"},
	{"opt.fused_members", "count"},
	{"opt.subsumed_members", "count"},
	{"opt.fused_rules_out", "count"},
	{"opt.cse_preds", "count"},
	{"eval.materialize_ms", "ms"},
	{"eval.eval_ms", "ms"},
	{"eval.bytes_per_op", "B"},
	{"eval.facts_per_op", "count"},
	{"eval.result_memo_hit_ratio", "ratio"},
	{"eval.unfused_ms", "ms"},
	{"eval.inc_ms", "ms"},
	{"eval.inc_applies_per_op", "count"},
	{"eval.inc_fallbacks_per_op", "count"},
	{"eval.inc_overdeleted_per_op", "count"},
	{"eval.inc_rederived_per_op", "count"},
	{"span.enum_ms", "ms"},
	{"span.spans_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.heap_live_mb", "MiB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // span file of the traced run
	sc       scale
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced replay")
	flag.Parse()
	o.trace, o.sc = trace == 1, fullScale
	o.traceOut = filepath.Join(".bench_build", "extlayers", "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "extlayers:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "extlayers:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// generate builds a workload's inputs from its seed.
func generate(name string, seed int64, sc scale) (*workload, error) {
	w := &workload{name: name, seed: seed, sc: sc}
	var err error
	switch name {
	case wlCrawl:
		w.pages = crawlPages(seed, sc)
		w.defs = []wrapperDef{{name: crawlWrapperName, lang: mdlog.LangXPath, src: crawlWrapperSrc}}
	case wlFleet:
		w.pages = fleetPages(seed, sc)
		w.defs = fleet
	case wlLive:
		if w.sessions, err = liveSessions(seed, sc); err != nil {
			return nil, err
		}
		w.defs = fleet
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// prepare generates a workload and computes its oracle.
func prepare(name string, seed int64, sc scale) (*workload, error) {
	w, err := generate(name, seed, sc)
	if err != nil {
		return nil, err
	}
	if w.oracle, err = newOracle(w.defs); err != nil {
		return nil, err
	}
	if err := checkMSOEquivalents(w.defs, smallPages(seed)); err != nil {
		return nil, err
	}
	return w, w.oracle.expect(w.pages, oracleWorkers)
}

// smallPages are seeded pages of at most 64 nodes, where the naive MSO
// evaluator decides.
func smallPages(seed int64) []*tree.Tree {
	var out []*tree.Tree
	for i := 0; i < 4; i++ {
		out = append(out,
			html.Parse(html.ProductListing(rngFor(seed, 4, i), 1+i%3)),
			html.Parse(html.NewsIndex(rngFor(seed, 5, i), 1+i%2, 2)))
	}
	return out
}

// run executes one invocation and reports its result; log receives a
// human-readable account.
func run(o options, log io.Writer) (*result, error) {
	t0 := time.Now()
	w, err := prepare(o.workload, o.seed, o.sc)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "extlayers: %s seed %d: generated and oracle computed in %.2fs\n", w.name, w.seed, time.Since(t0).Seconds())
	t0 = time.Now()
	fmt.Fprintf(log, "extlayers: %s seed %d: request stream digest %s (first %d ops, %.2fs)\n",
		w.name, w.seed, streamDigest(w, digestOps), digestOps, time.Since(t0).Seconds())

	var setups []float64
	var d *daemon
	for k := 0; k < o.sc.setups; k++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		// Collect the previous daemon's garbage first, so no set-up
		// pays for another's collection.
		runtime.GC()
		var el time.Duration
		if d, el, err = w.boot(); err != nil {
			return nil, err
		}
		setups = append(setups, el.Seconds())
	}
	if w.name == wlLive {
		t0 = time.Now()
		if err := w.warmLive(d); err != nil {
			d.close()
			return nil, fmt.Errorf("live-edit warm-up: %w", err)
		}
		fmt.Fprintf(log, "extlayers: live-edit warm-up of %d ops per client in %.2fs\n", liveWarmOps, time.Since(t0).Seconds())
	}
	runtime.GC()

	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur = time.Duration(float64(dur) * httpShare)
	}
	cache0, rt0 := d.srv.DocCacheStats(), readRuntime()
	ph := w.runHTTP(d, dur)
	cache1, rt1 := d.srv.DocCacheStats(), readRuntime()
	closeErr := d.close()
	d = nil
	if w.name == wlLive && ph.failed == 0 {
		t0 = time.Now()
		if err := w.verifyLive(ph); err != nil {
			ph.failed++
			ph.errs = append(ph.errs, err)
		}
		fmt.Fprintf(log, "extlayers: live-edit replay oracle checked %d+%d samples in %.2fs\n", len(ph.samples[0]), len(ph.samples[1]), time.Since(t0).Seconds())
	}
	if closeErr != nil {
		return nil, closeErr
	}
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	for _, e := range ph.errs {
		fmt.Fprintln(log, "extlayers: failure:", e)
	}
	httpP50 := quantile(ph.lat, 0.5)
	fmt.Fprintf(log, "extlayers: %s: %d ops in %.2fs, %d failed (error_rate %.4f), p50 %.2f ms, %d clients closed loop\n",
		w.name, ph.attempted, ph.wall.Seconds(), ph.failed, float64(ph.failed)/float64(max(ph.attempted, 1)), httpP50, clients)

	if !o.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rps, p50 := ph.windowed(dur, windows)
		vals := map[string]float64{
			"throughput_rps":  median(rps),
			"latency_p50_ms":  median(p50),
			"latency_p99_ms":  quantile(ph.lat, 0.99),
			"alloc_mb_per_op": float64(rt1.allocBytes-rt0.allocBytes) / float64(max(ph.attempted, 1)) / (1 << 20),
			"peak_rss_mb":     rss,
			"setup_s":         median(setups),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
	} else {
		vals, rerr := traced(w, o)
		if rerr != nil {
			res.Failed++
			fmt.Fprintln(log, "extlayers: failure:", rerr)
		}
		ops := float64(max(ph.attempted, 1))
		if lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); lookups > 0 {
			vals["service.doccache_hit_ratio"] = float64(cache1.Hits-cache0.Hits) / float64(lookups)
		}
		vals["service.doccache_evictions_per_op"] = float64(cache1.Evictions-cache0.Evictions) / ops
		vals["service.overhead_ms"] = httpP50 - vals["replay_p50_ms"]
		if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
			vals["runtime.gc_cpu_fraction"] = (rt1.gcCPU - rt0.gcCPU) / cpu
		}
		vals["runtime.gc_cycles_per_op"] = float64(rt1.gcCycles-rt0.gcCycles) / ops
		vals["runtime.heap_live_mb"] = float64(rt1.heapLive) / (1 << 20)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(log, "extlayers: %-36s %14.4f %s\n", m.name, v.Value, v.Unit)
		}
	}
	return res, nil
}

// traced runs the in-process replay twice over the same ops, without
// and then with tracing, and derives the per-layer metrics.
func traced(w *workload, o options) (map[string]float64, error) {
	vals := map[string]float64{}
	var compiles []map[string]float64
	for k := 0; k < o.sc.setups; k++ {
		_, _, m, err := compileFleet(w)
		if err != nil {
			return vals, err
		}
		compiles = append(compiles, m)
	}
	for key := range compiles[0] {
		var v []float64
		for _, m := range compiles {
			v = append(v, m[key])
		}
		vals[key] = median(v)
	}

	plain, err := newReplayer(w, newTracer(false))
	if err != nil {
		return vals, err
	}
	replayDur := time.Duration(o.seconds * replayShare * float64(time.Second))
	base, err := plain.run(0, replayDur)
	if err != nil {
		return vals, err
	}
	plain = nil
	runtime.GC()

	tr := newTracer(true)
	rp, err := newReplayer(w, tr)
	if err != nil {
		return vals, err
	}
	spans, err := rp.run(len(base), 0)
	if err != nil {
		return vals, err
	}
	if rp.memoRuns > 0 {
		vals["eval.result_memo_hit_ratio"] = float64(rp.memoHits) / float64(rp.memoRuns)
	}
	if err := tr.write(o.traceOut); err != nil {
		return vals, err
	}

	vals["replay_p50_ms"] = medianDur(base)
	var sumBase, sumTraced time.Duration
	for i := range spans {
		sumBase += base[i]
		sumTraced += spans[i]
	}
	vals["trace.overhead_ratio"] = float64(sumTraced) / float64(sumBase)

	self := tr.selfTimes()
	var unattributed []float64
	for i, s := range tr.spans {
		if s.Parent < 0 && s.End > s.Start {
			unattributed = append(unattributed, float64(self[i])/float64(s.End-s.Start))
		}
	}
	vals["trace.unattributed_share"] = median(unattributed)

	keys := map[string]bool{}
	for _, s := range tr.samples {
		for k := range s {
			keys[k] = true
		}
	}
	for k := range keys {
		var v []float64
		for _, s := range tr.samples {
			if x, ok := s[k]; ok {
				v = append(v, x)
			}
		}
		if countMetric(k) {
			vals[k] = mean(v)
		} else {
			vals[k] = median(v)
		}
	}
	return vals, nil
}

// countMetric reports the per-layer metrics that are per-op counts
// (reported as means; everything else is a per-op median).
func countMetric(name string) bool {
	return strings.HasSuffix(name, "nodes_per_op") || strings.HasSuffix(name, "facts_per_op") ||
		strings.HasSuffix(name, "spans_per_op") || strings.HasPrefix(name, "eval.inc_") && strings.HasSuffix(name, "_per_op")
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func medianDur(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	return median(v)
}
