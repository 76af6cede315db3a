package mdlog

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"mdlog/internal/html"
	"mdlog/internal/tree"
)

const crossPage = `
<html><body>
<table>
  <tr><td>Espresso</td><td><b>2.20</b></td></tr>
  <tr><td>Cappuccino</td><td><b>3.10</b></td></tr>
  <tr><td>Water</td><td>1.00</td></tr>
</table>
</body></html>`

// The same unary query — "td elements having a b-labeled child" —
// written in five of the paper's formalisms. Compiled through the one
// Compile entry point, all must select the same node set.
var crossSources = []struct {
	lang Language
	src  string
	opts []Option
}{
	{LangDatalog, `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`, nil},
	{LangMSO, `label_td(x) & exists y (child(x,y) & label_b(y))`, nil},
	{LangXPath, `//td[b]`, nil},
	{LangCaterpillar, `child*.label_td.child.label_b.(child^-1).label_td`, nil},
	{LangElog, `q(x) :- root(x0), subelem("html.body.table.tr.td", x0, x), contains("b", x, y).`, nil},
}

func TestCompileCrossFormalismEquivalence(t *testing.T) {
	doc := ParseHTML(crossPage)
	ctx := context.Background()

	// Reference: the direct Core XPath evaluator.
	xp, err := ParseXPath("//td[b]")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(XPathSelect(xp, doc))
	if want == "[]" {
		t.Fatalf("reference query selects nothing; bad test document")
	}

	for _, lvl := range []OptLevel{OptNone, OptFull} {
		for _, cs := range crossSources {
			opts := append([]Option{WithOptLevel(lvl)}, cs.opts...)
			q, err := Compile(cs.src, cs.lang, opts...)
			if err != nil {
				t.Fatalf("%v/%v: compile: %v", cs.lang, lvl, err)
			}
			got, err := q.Select(ctx, doc)
			if err != nil {
				t.Fatalf("%v/%v: select: %v", cs.lang, lvl, err)
			}
			if fmt.Sprint(got) != want {
				t.Errorf("%v/%v selects %v, want %v", cs.lang, lvl, got, want)
			}
			// Repeated execution must be stable (and exercise the cache).
			again, err := q.Select(ctx, doc)
			if err != nil {
				t.Fatalf("%v/%v: second select: %v", cs.lang, lvl, err)
			}
			if fmt.Sprint(again) != want {
				t.Errorf("%v/%v second select %v, want %v", cs.lang, lvl, again, want)
			}
		}
	}
}

func TestCompileTMNFRoute(t *testing.T) {
	doc := ParseHTML(crossPage)
	p, err := ParseProgram(`q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ToTMNF(p)
	if err != nil {
		t.Fatal(err)
	}
	// Program.String drops the ?- directive; WithQueryPred restores it.
	q, err := Compile(tp.String(), LangTMNF, WithQueryPred("q"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Select(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	xp, _ := ParseXPath("//td[b]")
	if want := fmt.Sprint(XPathSelect(xp, doc)); fmt.Sprint(got) != want {
		t.Errorf("TMNF route selects %v, want %v", got, want)
	}

	// LangTMNF must validate, not normalize.
	if _, err := Compile(`q(X) :- child(X,Y), label_b(Y).`, LangTMNF); err == nil {
		t.Error("LangTMNF accepted a non-TMNF program")
	}
}

// skeletonCase is one language's entry in the compile-skeleton
// contract tests: a source, its AST-level twin (parse, then the
// Compile* entry that takes the AST), and whether the source routes
// through datalog (and so through the serving engine and a
// content-keyed result memo).
type skeletonCase struct {
	lang    Language
	src     string
	twin    func(src string, opts ...Option) (*CompiledQuery, error)
	datalog bool
}

func skeletonCases(t *testing.T) []skeletonCase {
	t.Helper()
	dl := `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`
	p, err := ParseProgram(dl)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ToTMNF(p)
	if err != nil {
		t.Fatal(err)
	}
	program := func(src string, opts ...Option) (*CompiledQuery, error) {
		p, err := ParseProgram(src)
		if err != nil {
			return nil, err
		}
		return CompileProgram(p, opts...)
	}
	return []skeletonCase{
		{LangDatalog, dl, program, true},
		// Program.String drops the ?- directive; a TMNF program is
		// datalog, so CompileProgram is its twin.
		{LangTMNF, tp.String() + " ?- q.", program, true},
		{LangMSO, crossSources[1].src, func(src string, opts ...Option) (*CompiledQuery, error) {
			f, err := ParseMSO(src)
			if err != nil {
				return nil, err
			}
			return CompileMSO(f, opts...)
		}, false},
		{LangXPath, `//td[b]`, func(src string, opts ...Option) (*CompiledQuery, error) {
			x, err := ParseXPath(src)
			if err != nil {
				return nil, err
			}
			return CompileXPath(x, opts...)
		}, true},
		{LangCaterpillar, crossSources[3].src, func(src string, opts ...Option) (*CompiledQuery, error) {
			e, err := ParseCaterpillar(src)
			if err != nil {
				return nil, err
			}
			return CompileCaterpillar(e, opts...)
		}, true},
		{LangElog, crossSources[4].src, func(src string, opts ...Option) (*CompiledQuery, error) {
			p, err := ParseElog(src)
			if err != nil {
				return nil, err
			}
			return CompileElog(p, opts...)
		}, true},
		{LangSpanner, priceSpanner, func(src string, opts ...Option) (*CompiledQuery, error) {
			p, err := ParseSpanner(src)
			if err != nil {
				return nil, err
			}
			return CompileSpanner(p, opts...)
		}, true},
	}
}

// TestCompileSkeletonContract pins what the one compile skeleton
// guarantees every language: WithEngine(EngineBitmap) reaches every
// datalog-routed plan; Compile(src) and its AST twin share one
// result-memo entry through a shared cache (the automaton keys its memo
// by query identity, so there the two stay apart); and both record
// their compile time.
func TestCompileSkeletonContract(t *testing.T) {
	ctx := context.Background()
	doc := ParseHTML(crossPage)
	cases := skeletonCases(t)
	if len(cases) != len(LanguageNames()) {
		t.Fatalf("skeleton cases cover %d languages, want all %d", len(cases), len(LanguageNames()))
	}
	for _, c := range cases {
		t.Run(c.lang.String(), func(t *testing.T) {
			tc := NewTreeCache(0)
			opts := []Option{WithEngine(EngineBitmap), WithCache(tc)}
			fromSrc, err := Compile(c.src, c.lang, opts...)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			fromAST, err := c.twin(c.src, opts...)
			if err != nil {
				t.Fatalf("AST twin: %v", err)
			}
			wantEngine := "automaton"
			if c.datalog {
				wantEngine = "bitmap"
			}
			for _, q := range []*CompiledQuery{fromSrc, fromAST} {
				if got := q.EngineName(); got != wantEngine {
					t.Errorf("engine %q, want %q", got, wantEngine)
				}
				if _, err := q.Eval(ctx, doc); err != nil {
					t.Fatal(err)
				}
				if q.Stats().Compile <= 0 {
					t.Errorf("Stats().Compile not recorded: %+v", q.Stats())
				}
			}
			if fromSrc.Stats().Parse <= 0 {
				t.Errorf("Compile did not record its parse time: %+v", fromSrc.Stats())
			}
			wantResults := 2
			if c.datalog {
				wantResults = 1
			}
			if got := tc.Stats().Results; got != wantResults {
				t.Errorf("Compile and its twin left %d memo entries, want %d", got, wantResults)
			}
		})
	}
}

// TestDefaultEngineIsBitmap: with no engine named, datalog-routed
// queries and the fused pass of a QuerySet serve on the bitmap engine.
func TestDefaultEngineIsBitmap(t *testing.T) {
	ctx := context.Background()
	doc := ParseHTML(querySetPage)
	var members []*CompiledQuery
	for _, src := range []string{`//td[b]`, `//tr/td`} {
		q, err := Compile(src, LangXPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.EngineName(); got != "bitmap" {
			t.Fatalf("%s: default engine %q, want bitmap", src, got)
		}
		members = append(members, q)
	}
	set, err := NewQuerySet(members...)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range set.Run(ctx, doc) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Stats.Engine != "bitmap" {
			t.Fatalf("fused member %s served by %q, want bitmap", res.Name, res.Stats.Engine)
		}
	}
}

// TestCompileRejectsReferenceEngines: every language's Compile and AST
// twin refuse the reference engines and out-of-range values with an
// error naming exactly the serving engines.
func TestCompileRejectsReferenceEngines(t *testing.T) {
	for _, c := range skeletonCases(t) {
		for _, e := range []Engine{EngineSemiNaive, EngineNaive, EngineLIT, Engine(99)} {
			for name, compile := range map[string]func(string, ...Option) (*CompiledQuery, error){
				"Compile": func(src string, opts ...Option) (*CompiledQuery, error) { return Compile(src, c.lang, opts...) },
				"twin":    c.twin,
			} {
				_, err := compile(c.src, WithEngine(e))
				if err == nil || !strings.HasSuffix(err.Error(), "(valid engines: linear, bitmap)") {
					t.Errorf("%v %s with engine %v: got %v, want a rejection naming linear, bitmap", c.lang, name, e, err)
				}
			}
		}
	}
}

// TestCompileEngines runs one program on both serving engines through
// Compile and on the reference engines through EvalOnTree; all must
// select the same nodes.
func TestCompileEngines(t *testing.T) {
	doc := ParseHTML(crossPage)
	src := `sel(X) :- label_td(X), firstchild(X,Y), label_b(Y).` // td whose first child is b
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, e := range []Engine{EngineLinear, EngineBitmap, EngineSemiNaive, EngineNaive, EngineLIT} {
		var got []int
		if slices.Contains(servingEngines, e) {
			q, err := Compile(src, LangDatalog, WithEngine(e), WithQueryPred("sel"))
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			if got, err = q.Select(context.Background(), doc); err != nil {
				t.Fatalf("%v: %v", e, err)
			}
		} else {
			db, err := EvalOnTree(p, doc, e)
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			got = db.UnarySet("sel")
		}
		if want == "" {
			want = fmt.Sprint(got)
		} else if fmt.Sprint(got) != want {
			t.Errorf("engine %v selects %v, want %v", e, got, want)
		}
	}
}

// TestEvalHidesNormalizationHelpers pins the Eval contract: when the
// linear engine TMNF-normalizes a child-using program, the tm_*
// auxiliaries must not leak into the visible relations.
func TestEvalHidesNormalizationHelpers(t *testing.T) {
	doc := ParseHTML(crossPage)
	src := `q(X) :- child(Y,X), label_tr(Y).`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, e := range []Engine{EngineLinear, EngineBitmap, EngineSemiNaive} {
		db, err := EvalOnTree(p, doc, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		preds := fmt.Sprint(db.Preds())
		if want == "" {
			want = preds
		} else if preds != want {
			t.Errorf("engine %v exposes %v, engine linear exposes %v", e, preds, want)
		}
		if preds != "[q]" {
			t.Errorf("engine %v exposes %v, want [q]", e, preds)
		}
	}
}

func TestCompiledQueryWrap(t *testing.T) {
	doc := ParseHTML(crossPage)
	src := `
row(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- row(x0), subelem("td.b.#text", x0, x).
`
	q, err := Compile(src, LangElog, WithWrapOptions(WrapOptions{KeepText: true}))
	if err != nil {
		t.Fatal(err)
	}
	out, assign, err := q.WrapAssign(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign["row"]) != 3 || len(assign["price"]) != 2 {
		t.Fatalf("assignment = %v", assign)
	}
	// Legacy wrapper agrees.
	prog, err := ParseElog(src)
	if err != nil {
		t.Fatal(err)
	}
	w := &ElogWrapper{Program: prog, Options: WrapOptions{KeepText: true}}
	lout, lassign, err := w.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(assign) != fmt.Sprint(lassign) {
		t.Errorf("assignment %v vs legacy %v", assign, lassign)
	}
	if !out.Equal(lout) {
		t.Errorf("output tree differs from legacy wrapper:\n%s\nvs\n%s", out, lout)
	}
}

func TestElogSelectNeedsUniquePattern(t *testing.T) {
	src := `
a(x) :- root(x0), subelem("_", x0, x).
b(x) :- root(x0), subelem("_._", x0, x).
`
	q, err := Compile(src, LangElog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Select(context.Background(), ParseHTML(crossPage)); err == nil {
		t.Error("Select on ambiguous Elog program should error")
	}
	q2, err := Compile(src, LangElog, WithQueryPred("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Select(context.Background(), ParseHTML(crossPage)); err != nil {
		t.Errorf("WithQueryPred select: %v", err)
	}
	// A single-pattern WithExtract also disambiguates Select.
	q3, err := Compile(src, LangElog, WithExtract("b"))
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := q3.Select(context.Background(), ParseHTML(crossPage)); err != nil {
		t.Errorf("WithExtract select: %v", err)
	} else if len(ids) == 0 {
		t.Error("WithExtract select returned nothing")
	}
}

func TestCompiledQueryStats(t *testing.T) {
	doc := ParseHTML(crossPage)
	q, err := Compile(`q(X) :- label_td(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := q.Select(ctx, doc); err != nil {
		t.Fatal(err)
	}
	ids, rs, err := q.SelectStats(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Runs != 1 || rs.Facts != int64(len(ids)) {
		t.Errorf("per-run stats = %+v", rs)
	}
	if rs.CacheHits != 1 {
		t.Errorf("second run on same tree should hit the cache: %+v", rs)
	}
	agg := q.Stats()
	if agg.Runs != 2 || agg.CacheHits < 1 {
		t.Errorf("aggregate stats = %+v", agg)
	}
	if agg.Compile <= 0 {
		t.Errorf("compile time not recorded: %+v", agg)
	}
}

func TestCompiledQueryContextCancel(t *testing.T) {
	q, err := Compile(`q(X) :- label_td(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Select(ctx, ParseHTML(crossPage)); err == nil {
		t.Error("canceled context should fail Select")
	}
}

func TestSharedCacheAcrossQueries(t *testing.T) {
	doc := ParseHTML(crossPage)
	tc := NewTreeCache(0)
	q1, err := Compile(`q(X) :- label_td(X). ?- q.`, LangDatalog, WithCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Compile(`q(X) :- label_tr(X). ?- q.`, LangDatalog, WithCache(tc))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := q1.Select(ctx, doc); err != nil {
		t.Fatal(err)
	}
	if _, rs, err := q2.SelectStats(ctx, doc); err != nil {
		t.Fatal(err)
	} else if rs.CacheHits != 1 {
		t.Errorf("q2 should reuse q1's cached document state: %+v", rs)
	}
	if tc.Len() != 1 {
		t.Errorf("cache holds %d trees, want 1", tc.Len())
	}
}

// TestUnknownBinaryDiagnosedAtEveryOptLevel: a typo'd tree relation
// must fail compilation identically at -O0 and -O1 — the optimizer is
// not allowed to eliminate its way past a diagnosable error, even
// when the offending rule is outside the extraction roots.
func TestUnknownBinaryDiagnosedAtEveryOptLevel(t *testing.T) {
	for _, src := range []string{
		`
q(X) :- label_td(X).
r(X) :- bogus(X,Y), label_b(Y).
`,
		// Indirect: the offending rule references an intensional
		// predicate whose defining rule is otherwise dead — it must
		// stay defined so the engine reaches the typo'd binary atom.
		`
q(X) :- label_td(X).
p(X) :- label_b(X).
r(X) :- p(X), bogus(X,Y).
`,
	} {
		for _, lvl := range []OptLevel{OptNone, OptFull} {
			_, err := Compile(src, LangDatalog, WithExtract("q"), WithOptLevel(lvl))
			if err == nil || !strings.Contains(err.Error(), "unknown binary predicate") {
				t.Errorf("%v: want the unknown-binary diagnosis, got %v\nprogram:%s", lvl, err, src)
			}
		}
	}
}

// TestResultMemoNoAliasing pins the TreeCache memo-key contract: the
// key hashes the POST-optimization program (plus engine and visible
// predicates), so two semantically different compilations of the SAME
// source string — different extraction lists, different optimization
// levels — never share a memo entry, while byte-identical plans do.
func TestResultMemoNoAliasing(t *testing.T) {
	doc := ParseHTML(crossPage)
	tc := NewTreeCache(0)
	ctx := context.Background()
	src := `
a(X) :- label_td(X).
b(X) :- label_tr(X).
`
	compile := func(extract string, lvl OptLevel) *CompiledQuery {
		t.Helper()
		q, err := Compile(src, LangDatalog, WithCache(tc), WithExtract(extract), WithOptLevel(lvl))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	qa := compile("a", OptFull)
	dbA, err := qa.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbA.UnarySet("a")) == 0 {
		t.Fatalf("extract-a query found no td nodes")
	}

	// Same source, different visible predicate: must NOT reuse qa's
	// memoized (and a-only) result.
	qb := compile("b", OptFull)
	dbB, err := qb.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbB.UnarySet("b")) == 0 {
		t.Fatalf("extract-b query served a stale memo entry: %v", dbB)
	}

	// Same source and extraction, different optimization level: the
	// optimized and unoptimized plans differ, so a third entry appears.
	qa0 := compile("a", OptNone)
	if _, err := qa0.Eval(ctx, doc); err != nil {
		t.Fatal(err)
	}
	if got := tc.Stats().Results; got != 3 {
		t.Fatalf("memo holds %d entries, want 3 (a/O1, b/O1, a/O0)", got)
	}

	// A byte-identical plan from a separate Compile call SHARES the
	// entry: cross-query amortization, the flip side of the hash key.
	qaDup := compile("a", OptFull)
	if _, rs, err := qaDup.EvalStats(ctx, doc); err != nil {
		t.Fatal(err)
	} else if rs.CacheHits != 1 {
		t.Errorf("identical plan should hit the shared memo: %+v", rs)
	}
	if got := tc.Stats().Results; got != 3 {
		t.Errorf("identical plan grew the memo to %d entries", got)
	}
}

// TestRunnerFanOut exercises the Runner under -race: one compiled
// query, many documents, bounded workers, results in order; plus many
// goroutines hammering one document through the shared TreeCache.
func TestRunnerFanOut(t *testing.T) {
	q, err := Compile(`q(X) :- label_b(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	docs := make([]*Tree, 40)
	for i := range docs {
		docs[i] = tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 50 + i, MaxChildren: 4})
	}
	want := make([][]int, len(docs))
	for i, d := range docs {
		ids, err := q.Select(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	r := Runner{Workers: 8}
	res := r.SelectAll(ctx, q, docs)
	if len(res) != len(docs) {
		t.Fatalf("got %d results", len(res))
	}
	for i, x := range res {
		if x.Err != nil {
			t.Fatalf("doc %d: %v", i, x.Err)
		}
		if x.Index != i || x.Doc != docs[i] {
			t.Fatalf("result %d out of order (index %d)", i, x.Index)
		}
		if fmt.Sprint(x.Nodes) != fmt.Sprint(want[i]) {
			t.Errorf("doc %d: %v, want %v", i, x.Nodes, want[i])
		}
	}

	// Streaming: same results, same order.
	in := make(chan *Tree)
	go func() {
		defer close(in)
		for _, d := range docs {
			in <- d
		}
	}()
	i := 0
	for x := range r.SelectStream(ctx, q, in) {
		if x.Err != nil {
			t.Fatalf("stream doc %d: %v", i, x.Err)
		}
		if x.Index != i {
			t.Fatalf("stream result %d has index %d", i, x.Index)
		}
		if fmt.Sprint(x.Nodes) != fmt.Sprint(want[i]) {
			t.Errorf("stream doc %d: %v, want %v", i, x.Nodes, want[i])
		}
		i++
	}
	if i != len(docs) {
		t.Fatalf("stream yielded %d of %d", i, len(docs))
	}

	// Concurrent Select on the SAME document: the TreeCache must be
	// race-clean and the answer identical every time.
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				ids, err := q.Select(ctx, docs[0])
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(ids) != fmt.Sprint(want[0]) {
					t.Errorf("concurrent select: %v, want %v", ids, want[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRunnerWrapAll(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs := []*Tree{
		ParseHTML(html.ProductListing(rng, 3)),
		ParseHTML(html.ProductListing(rng, 5)),
		ParseHTML(html.ProductListing(rng, 2)),
	}
	q, err := Compile(`
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- item(x0), subelem("td.b.#text", x0, x).
`, LangElog, WithWrapOptions(WrapOptions{KeepText: true}))
	if err != nil {
		t.Fatal(err)
	}
	res := Runner{Workers: 3}.WrapAll(context.Background(), q, docs)
	for i, x := range res {
		if x.Err != nil {
			t.Fatalf("doc %d: %v", i, x.Err)
		}
		if len(x.Assignment["item"]) == 0 {
			t.Errorf("doc %d extracted nothing: %v", i, x.Assignment)
		}
	}
	// ProductListing emits one header row plus the item rows.
	if len(res[0].Assignment["item"]) != 4 || len(res[1].Assignment["item"]) != 6 {
		t.Errorf("row counts: %v / %v", res[0].Assignment, res[1].Assignment)
	}
}

func TestRunnerContextCancel(t *testing.T) {
	q, err := Compile(`q(X) :- label_a(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	docs := []*Tree{MustParseTree(t, "a(b,c)"), MustParseTree(t, "a(a)")}
	res := Runner{Workers: 2}.SelectAll(ctx, q, docs)
	for i, x := range res {
		if x.Err == nil {
			t.Errorf("doc %d should carry the cancellation error", i)
		}
	}
}

func MustParseTree(t *testing.T, s string) *Tree {
	t.Helper()
	tr, err := ParseTree(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestShimsMatchCompiled pins the legacy free functions to the new
// path they now delegate to.
func TestShimsMatchCompiled(t *testing.T) {
	doc := ParseHTML(crossPage)
	ctx := context.Background()

	p, err := ParseProgram(`q(X) :- label_td(X), firstchild(X,Y). ?- q.`)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Query(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := CompileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	unified, err := cq.Select(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(legacy) != fmt.Sprint(unified) {
		t.Errorf("Query %v vs CompiledQuery %v", legacy, unified)
	}

	xp, err := ParseXPath("//tr[not(td/b)]") // negation: direct plan
	if err != nil {
		t.Fatal(err)
	}
	got := XPathSelect(xp, doc)
	if len(got) != 1 {
		t.Errorf("negation query selects %v, want one row", got)
	}

	ce, err := ParseCaterpillar("child.child")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CompileCaterpillar(ce)
	if err != nil {
		t.Fatal(err)
	}
	cids, err := cc.Select(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(CaterpillarSelect(ce, doc)) != fmt.Sprint(cids) {
		t.Errorf("CaterpillarSelect disagrees with compiled route")
	}
}

// TestRunnerSelectHTMLStream drives raw HTML readers through the
// worker pool: streaming parse (arena ingestion) + Select per worker,
// results in input order.
func TestRunnerSelectHTMLStream(t *testing.T) {
	q, err := Compile(`//td[b]`, LangXPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	srcs := make([]string, 24)
	want := make([][]int, len(srcs))
	for i := range srcs {
		srcs[i] = html.ProductListing(rng, 3+i)
		ids, err := q.Select(ctx, ParseHTML(srcs[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	in := make(chan io.Reader)
	go func() {
		defer close(in)
		for _, s := range srcs {
			in <- strings.NewReader(s)
		}
	}()
	r := Runner{Workers: 6}
	i := 0
	for x := range r.SelectHTMLStream(ctx, q, in) {
		if x.Err != nil {
			t.Fatalf("doc %d: %v", i, x.Err)
		}
		if x.Index != i {
			t.Fatalf("result %d has index %d", i, x.Index)
		}
		if x.Doc == nil || x.Doc.Size() == 0 {
			t.Fatalf("doc %d missing parsed tree", i)
		}
		if fmt.Sprint(x.Nodes) != fmt.Sprint(want[i]) {
			t.Errorf("doc %d: %v, want %v", i, x.Nodes, want[i])
		}
		i++
	}
	if i != len(srcs) {
		t.Fatalf("yielded %d of %d", i, len(srcs))
	}

	// A failing reader surfaces as a per-document error, not a hang.
	in2 := make(chan io.Reader, 2)
	in2 <- strings.NewReader(srcs[0])
	in2 <- iotestErrReader{}
	close(in2)
	var errs, oks int
	for x := range r.SelectHTMLStream(ctx, q, in2) {
		if x.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 1 {
		t.Errorf("errs=%d oks=%d", errs, oks)
	}
}

type iotestErrReader struct{}

func (iotestErrReader) Read([]byte) (int, error) { return 0, fmt.Errorf("boom") }
