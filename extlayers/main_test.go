package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mdlog/internal/span"
)

// TestStreamsAreSeeded: one seed gives a byte-identical request
// stream twice; another seed changes it.
func TestStreamsAreSeeded(t *testing.T) {
	digest := func(name string, seed int64) string {
		w, err := generate(name, seed, fullScale)
		if err != nil {
			t.Fatal(err)
		}
		return streamDigest(w, 64)
	}
	for _, name := range workloadNames {
		a, b, c := digest(name, 1), digest(name, 1), digest(name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave streams %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", name, a)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSelfCheck runs every workload at tiny size, untraced and traced,
// and requires the oracle to pass with no failed op and every metric
// BENCHMARK.json names to be printed with its unit.
func TestSelfCheck(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.4, trace: traced,
				traceOut: filepath.Join(t.TempDir(), "trace.jsonl"), sc: tinyScale}
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no spans written to %s (%v)", name, o.traceOut, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestOracleRejectsWrongAnswers: a response that drops one selected
// node, or one span, fails the check.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	w, err := prepare(wlFleet, 3, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	want := w.oracle.expected[0]
	items := make([]resultItem, len(want))
	for i, a := range want {
		items[i] = resultItem{Wrapper: w.defs[i].name, Nodes: a.ids, Spans: a.spans}
	}
	if err := w.oracle.checkSet(items, want, false); err != nil {
		t.Fatalf("expected answers rejected: %v", err)
	}
	if err := w.oracle.checkSet(items, want, true); err != nil {
		t.Fatalf("expected spans rejected: %v", err)
	}
	for i, it := range items {
		if len(it.Nodes) > 0 {
			bad := slices.Clone(items)
			bad[i].Nodes = it.Nodes[1:]
			if w.oracle.checkSet(bad, want, false) == nil {
				t.Errorf("dropping a node of %s was not detected", it.Wrapper)
			}
		}
		if len(it.Spans) > 0 && len(it.Spans[0].Rows) > 0 {
			bad := slices.Clone(items)
			rel := it.Spans[0]
			rel.Rows = rel.Rows[1:]
			bad[i].Spans = append([]span.Relation{rel}, it.Spans[1:]...)
			if w.oracle.checkSet(bad, want, true) == nil {
				t.Errorf("dropping a span row of %s was not detected", it.Wrapper)
			}
		}
	}
}
