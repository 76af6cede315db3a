package main

// The output oracle: expected answers for every distinct (wrapper,
// page) pair, computed before timing with the reference evaluators of
// fleet.go, and the checks every response and replayed op must pass.

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	mdlog "mdlog"
	"mdlog/internal/html"
	"mdlog/internal/span"
	"mdlog/internal/tree"
)

// oracle holds the reference evaluator of each wrapper and, for the
// stateless workloads, the expected answer of each (page, wrapper).
type oracle struct {
	defs     []wrapperDef
	index    map[string]int // wrapper name → defs index
	refs     []reference
	expected [][]answer // [page][wrapper]
}

func newOracle(defs []wrapperDef) (*oracle, error) {
	o := &oracle{defs: defs, index: map[string]int{}}
	cache := map[string]reference{}
	for i, d := range defs {
		o.index[d.name] = i
		key := refKey(d)
		ref, ok := cache[key]
		if !ok {
			var err error
			if ref, err = referenceFor(d); err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", d.name, err)
			}
			cache[key] = ref
		}
		o.refs = append(o.refs, ref)
	}
	return o, nil
}

// refKey identifies a wrapper's reference evaluation: verbatim copies
// share one.
func refKey(d wrapperDef) string { return fmt.Sprintf("%v\x00%s\x00%s", d.lang, d.src, d.equiv) }

// answers evaluates every wrapper's reference on t. Wrappers sharing a
// reference (verbatim copies) share its evaluation.
func (o *oracle) answers(t *tree.Tree) ([]answer, error) {
	out := make([]answer, len(o.defs))
	done := map[string]int{}
	for i, d := range o.defs {
		key := refKey(d)
		if j, ok := done[key]; ok {
			out[i] = out[j]
			continue
		}
		a, err := o.refs[i](t)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", d.name, err)
		}
		out[i], done[key] = a, i
	}
	return out, nil
}

// expect fills o.expected for every page, on workers goroutines.
func (o *oracle) expect(pages []string, workers int) error {
	o.expected = make([][]answer, len(pages))
	errs := make([]error, len(pages))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o.expected[i], errs[i] = o.answers(html.Parse(pages[i]))
			}
		}()
	}
	for i := range pages {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resultItem is one wrapper's entry in an /extractall response.
type resultItem struct {
	Wrapper string          `json:"wrapper"`
	Nodes   []int           `json:"nodes"`
	Spans   []span.Relation `json:"spans"`
	Error   string          `json:"error"`
}

// setResponse is the part of an /extractall or session extractall
// response the oracle reads.
type setResponse struct {
	Wrappers int          `json:"wrappers"`
	Results  []resultItem `json:"results"`
}

// checkExtract checks an /extract?output=nodes body.
func checkExtract(body []byte, want answer) error {
	var resp struct {
		Nodes []int `json:"nodes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding /extract response: %w", err)
	}
	if !slices.Equal(resp.Nodes, want.ids) {
		return fmt.Errorf("/extract selected %d nodes, oracle expects %d", len(resp.Nodes), len(want.ids))
	}
	return nil
}

// decodeSet decodes a set response and indexes its items by wrapper,
// requiring exactly one error-free entry per registered wrapper.
func (o *oracle) decodeSet(body []byte) ([]resultItem, error) {
	var resp setResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding set response: %w", err)
	}
	if resp.Wrappers != len(o.defs) || len(resp.Results) != len(o.defs) {
		return nil, fmt.Errorf("set response covers %d/%d wrappers, want %d", resp.Wrappers, len(resp.Results), len(o.defs))
	}
	items := make([]resultItem, len(o.defs))
	seen := make([]bool, len(o.defs))
	for _, it := range resp.Results {
		i, ok := o.index[it.Wrapper]
		if !ok || seen[i] {
			return nil, fmt.Errorf("set response has unexpected or repeated wrapper %q", it.Wrapper)
		}
		if it.Error != "" {
			return nil, fmt.Errorf("wrapper %s failed: %s", it.Wrapper, it.Error)
		}
		items[i], seen[i] = it, true
	}
	return items, nil
}

// checkSet compares a decoded set response with the expected answers:
// node ids for ?output=nodes; span relations for spanners (and none
// for every other wrapper) under ?output=spans.
func (o *oracle) checkSet(items []resultItem, want []answer, spans bool) error {
	for i, it := range items {
		d := o.defs[i]
		if !spans {
			if !slices.Equal(it.Nodes, want[i].ids) {
				return fmt.Errorf("wrapper %s selected %d nodes, oracle expects %d", d.name, len(it.Nodes), len(want[i].ids))
			}
			continue
		}
		var exp span.Result
		if d.lang == mdlog.LangSpanner {
			exp = want[i].spans
		}
		if err := sameSpans(it.Spans, exp); err != nil {
			return fmt.Errorf("wrapper %s: %w", d.name, err)
		}
	}
	return nil
}

// checkRun is checkSet for an in-process QuerySet run.
func (o *oracle) checkRun(res []mdlog.SetResult, want []answer, spans bool) error {
	items := make([]resultItem, len(o.defs))
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("wrapper %s failed: %w", r.Name, r.Err)
		}
		items[o.index[r.Name]] = resultItem{Wrapper: r.Name, Nodes: r.IDs, Spans: r.Spans}
	}
	return o.checkSet(items, want, spans)
}

func sameSpans(got, want []span.Relation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d span relations, oracle expects %d", len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Name != w.Name || !slices.Equal(g.Vars, w.Vars) || len(g.Rows) != len(w.Rows) {
			return fmt.Errorf("span relation %s has %d rows, oracle expects %s with %d", g.Name, len(g.Rows), w.Name, len(w.Rows))
		}
		for r := range g.Rows {
			if g.Rows[r].Node != w.Rows[r].Node || !slices.Equal(g.Rows[r].Spans, w.Rows[r].Spans) {
				return fmt.Errorf("span relation %s row %d differs from the oracle", g.Name, r)
			}
		}
	}
	return nil
}

// liveAnswers evaluates the references on a live document's canonical
// tree and maps the node ids back to the arena ids sessions report.
func (o *oracle) liveAnswers(doc *mdlog.Document) ([]answer, error) {
	want, err := o.answers(doc.Snapshot())
	if err != nil {
		return nil, err
	}
	live := doc.LiveNodes()
	out := make([]answer, len(want))
	for i, a := range want {
		ids := make([]int, len(a.ids))
		for k, v := range a.ids {
			ids[k] = live[v]
		}
		out[i] = answer{ids: sortedIDs(ids)}
	}
	return out, nil
}

// applyPatch applies one PATCH script to a live document the way the
// daemon's handler does.
func applyPatch(doc *mdlog.Document, req *patchReq) error {
	for k, op := range req.Ops {
		var err error
		switch op.Op {
		case "insert":
			var sub *mdlog.Tree
			if sub, err = mdlog.ParseTree(op.Term); err == nil {
				_, err = doc.InsertSubtree(op.Parent, op.Pos, sub.Root)
			}
		case "remove":
			err = doc.RemoveSubtree(op.Node)
		case "settext":
			err = doc.SetText(op.Node, op.Text)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", k, op.Op, err)
		}
	}
	return nil
}

// liveSample is a session extractall answer recorded during the run
// for the replay oracle.
type liveSample struct {
	op    int
	items []resultItem
}

// isLiveSample picks the ops whose answers are recorded: op indices
// i with i+1 a power of four (0, 3, 15, 63, ...), plus the last op.
func isLiveSample(i int) bool {
	n := i + 1
	return n&(n-1) == 0 && (n&0x55555555) != 0
}

// checkLive replays each recorded sample's cycle on a fresh parse, up
// to the sampled op, and compares the reference answers with the
// session's.
func (o *oracle) checkLive(s *session, samples []liveSample) error {
	for _, smp := range samples {
		doc := mdlog.NewDocument(html.Parse(s.html))
		for i := smp.op - smp.op%liveCycle; i <= smp.op; i++ {
			var req patchReq
			if err := json.Unmarshal(s.patch(i).body, &req); err != nil {
				return err
			}
			if err := applyPatch(doc, &req); err != nil {
				return fmt.Errorf("live-edit replay of %s op %d: %w", s.id, i, err)
			}
		}
		want, err := o.liveAnswers(doc)
		if err != nil {
			return err
		}
		if err := o.checkSet(smp.items, want, false); err != nil {
			return fmt.Errorf("live-edit %s after op %d: %w", s.id, smp.op, err)
		}
	}
	return nil
}
