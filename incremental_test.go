package mdlog

// Differential testing of the live-document path: randomly edited
// documents queried through SelectIncremental / EvalIncremental /
// RunIncremental must match replay-from-scratch — a from-scratch
// evaluation of the canonical live tree, mapped back to arena ids
// through the live preorder. Shares the program/tree generators and
// MDLOG_FUZZ_N / MDLOG_FUZZ_SEED knobs with differential_test.go.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/tree"
)

// randomDocEdit applies one random structural or text edit through
// the Document API.
func randomDocEdit(t *testing.T, rng *rand.Rand, doc *Document, labels []string) {
	t.Helper()
	live := doc.Tree().Arena().LivePreorder()
	switch op := rng.Intn(4); {
	case op == 0 && len(live) > 1: // remove a non-root subtree
		if err := doc.RemoveSubtree(int(live[1+rng.Intn(len(live)-1)])); err != nil {
			t.Fatal(err)
		}
	case op <= 2: // insert a small subtree
		sub := tree.New(labels[rng.Intn(len(labels))])
		for i := rng.Intn(3); i > 0; i-- {
			sub.Add(tree.New(labels[rng.Intn(len(labels))]))
		}
		if _, err := doc.InsertSubtree(int(live[rng.Intn(len(live))]), rng.Intn(4), sub); err != nil {
			t.Fatal(err)
		}
	default: // retext (no τ_ur fact changes)
		if err := doc.SetText(int(live[rng.Intn(len(live))]), fmt.Sprintf("t%d", rng.Int())); err != nil {
			t.Fatal(err)
		}
	}
}

// replayUnary is the replay-from-scratch oracle: evaluate p with the
// naive reference engine on the canonical live tree (as if the
// document had been re-parsed) and map each predicate's extension
// back to arena ids through the live preorder.
func replayUnary(t *testing.T, ctx context.Context, p *Program, doc *Document, preds []string) map[string][]int {
	t.Helper()
	return replayWith(t, ctx, p, doc, preds, EngineNaive, OptNone)
}

// replayWith is replayUnary on any engine at any optimization level.
func replayWith(t *testing.T, ctx context.Context, p *Program, doc *Document, preds []string, e Engine, lvl OptLevel) map[string][]int {
	t.Helper()
	ref, err := evalThrough(ctx, p, doc.Snapshot(), e, lvl, nil)
	if err != nil {
		t.Fatalf("replay %v/%v: %v\nprogram:\n%s", e, lvl, err, p)
	}
	pre := doc.Tree().Arena().LivePreorder()
	out := make(map[string][]int, len(preds))
	for _, pred := range preds {
		ids := ref.UnarySet(pred)
		mapped := make([]int, len(ids))
		for i, v := range ids {
			mapped[i] = int(pre[v])
		}
		sort.Ints(mapped)
		out[pred] = mapped
	}
	return out
}

// TestIncrementalDifferential fuzzes edit scripts: random programs
// over randomly edited documents, with the incremental results at
// both optimization levels — plus a fused QuerySet, and a linear and a
// semi-naive replay at both levels — compared against the naive
// replay-from-scratch after every edit window.
func TestIncrementalDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(fuzzSeed(t) ^ 0x9e3779b9))
	chainRng := rand.New(rand.NewSource(fuzzSeed(t) ^ 0x85ebca6b))
	labels := []string{"a", "b", "c"}
	iters := fuzzIterations(t)/4 + 2

	randomEdits := func(rng *rand.Rand) func(int, *Document) {
		return func(_ int, doc *Document) {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				randomDocEdit(t, rng, doc, labels)
			}
		}
	}
	for i := 0; i < iters; i++ {
		progs := []*Program{randomMonadicProgram(rng), randomMonadicProgram(rng), randomMonadicProgram(rng)}
		tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 25 + rng.Intn(55), MaxChildren: 5})
		incrementalCase(t, ctx, i, progs, tr, randomEdits(rng))
		// Long-chain arm: the same programs maintained on a wide or
		// deep tree, with trees and edits from a stream of their own so
		// the cases above do not change.
		incrementalCase(t, ctx, i, progs, longChainTree(chainRng, labels), randomEdits(chainRng))
	}

	// Sibling-chain arm: remove, then insert, the first, middle and
	// last child of a long sibling chain under descendant-style
	// programs — the edits whose deletions cascade along
	// firstchild·nextsibling* — each program maintained in turn.
	sibRng := rand.New(rand.NewSource(fuzzSeed(t) ^ 0x27d4eb2f))
	x, err := ParseXPath("//a[b]")
	if err != nil {
		t.Fatal(err)
	}
	xp, err := XPathToDatalog(x, "q")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*Program{xp, datalog.MustParseProgram(`
		d(X) :- root(X).
		d(Y) :- firstchild(X, Y), d(X).
		d(Y) :- nextsibling(X, Y), d(X).
		q(X) :- d(X), label_b(X), firstsibling(X).
		?- q.`), datalog.MustParseProgram(`
		u(X) :- nextsibling(X, Y), label_b(Y).
		u(X) :- nextsibling(X, Y), u(Y).
		q(X) :- u(X), label_a(X).
		?- q.`)}
	for k := range progs {
		rot := append(append([]*Program(nil), progs[k:]...), progs[:k]...)
		incrementalCase(t, ctx, k, rot, siblingChainTree(sibRng, 150+sibRng.Intn(150)), chainEdits(t))
	}
}

// siblingChainTree is a root over n children labelled a or b, about a
// third of them with a b child of their own.
func siblingChainTree(rng *rand.Rand, n int) *Tree {
	root := tree.New("r")
	for ; n > 0; n-- {
		c := tree.New([]string{"a", "b"}[rng.Intn(2)])
		if rng.Intn(3) == 0 {
			c.Add(tree.New("b"))
		}
		root.Add(c)
	}
	return tree.NewTree(root)
}

// chainEdits removes the first, middle and last child of the root,
// then inserts an a(b) subtree at the front, middle and end — one edit
// per step.
func chainEdits(t *testing.T) func(int, *Document) {
	return func(step int, doc *Document) {
		t.Helper()
		a := doc.Tree().Arena()
		var kids []int
		for c := a.FirstChild[0]; c >= 0; c = a.NextSibling[c] {
			kids = append(kids, int(c))
		}
		if step < 3 {
			if err := doc.RemoveSubtree(kids[[]int{0, len(kids) / 2, len(kids) - 1}[step]]); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := doc.InsertSubtree(0, []int{0, len(kids) / 2, len(kids)}[step%3], tree.MustParse("a(b)").Root); err != nil {
			t.Fatal(err)
		}
	}
}

// incrementalCase maintains progs[0] (at both optimization levels)
// and the fused set of progs on a live document over tr through six
// edit windows, each made by edit, checking every maintained model
// against replay from scratch after each.
func incrementalCase(t *testing.T, ctx context.Context, i int, progs []*Program, tr *Tree, edit func(step int, doc *Document)) {
	t.Helper()
	levels := []OptLevel{OptNone, OptFull}
	p := progs[0]
	preds := p.IntensionalPreds()
	doc := NewDocument(tr)

	// One maintained arm per optimization level, both fed the same
	// edit script.
	arms := make([]*CompiledQuery, len(levels))
	for k, lvl := range levels {
		q, err := CompileProgram(p.Clone(), WithOptLevel(lvl))
		if err != nil {
			t.Fatalf("case %d: compiling %v: %v\nprogram:\n%s", i, lvl, err, p)
		}
		arms[k] = q
	}

	// A fused set over the same namespace.
	qs := make([]*CompiledQuery, len(progs))
	for j, mp := range progs {
		q, err := CompileProgram(mp.Clone(), WithOptLevel(OptFull))
		if err != nil {
			t.Fatalf("case %d: compiling set member %d: %v\nprogram:\n%s", i, j, err, mp)
		}
		qs[j] = q
	}
	set, err := NewQuerySet(qs...)
	if err != nil {
		t.Fatalf("case %d: fusing: %v", i, err)
	}
	if set.FusedLen() != len(progs) {
		t.Fatalf("case %d: fused %d of %d members", i, set.FusedLen(), len(progs))
	}

	for step := 0; step < 6; step++ {
		edit(step, doc)
		oracle := replayUnary(t, ctx, p, doc, preds)
		for _, lvl := range levels {
			for _, e := range []Engine{EngineLinear, EngineSemiNaive} {
				replay := replayWith(t, ctx, p, doc, preds, e, lvl)
				for _, pred := range preds {
					if got := fmt.Sprint(replay[pred]); got != fmt.Sprint(oracle[pred]) {
						t.Fatalf("case %d step %d: %v/%v replay: %s = %s, naive %v\nprogram:\n%s",
							i, step, e, lvl, pred, got, oracle[pred], p)
					}
				}
			}
		}
		for k, q := range arms {
			db, err := q.EvalIncremental(ctx, doc)
			if err != nil {
				t.Fatalf("case %d step %d: incremental %v: %v\nprogram:\n%s", i, step, levels[k], err, p)
			}
			for _, pred := range preds {
				if got := fmt.Sprint(db.UnarySet(pred)); got != fmt.Sprint(oracle[pred]) {
					t.Fatalf("case %d step %d: incremental %v: %s = %s, replay %v\nprogram:\n%s",
						i, step, levels[k], pred, got, oracle[pred], p)
				}
			}
		}
		for j, r := range set.RunIncremental(ctx, doc) {
			if r.Err != nil {
				t.Fatalf("case %d step %d: fused member %d: %v\nprogram:\n%s", i, step, j, r.Err, progs[j])
			}
			mo := replayUnary(t, ctx, progs[j], doc, progs[j].IntensionalPreds())
			for _, pred := range progs[j].IntensionalPreds() {
				got, want := r.Assignment[pred], mo[pred]
				if fmt.Sprint(got) != fmt.Sprint(want) && (len(got) > 0 || len(want) > 0) {
					t.Fatalf("case %d step %d: fused member %d: %s = %v, replay %v\nprogram:\n%s",
						i, step, j, pred, got, want, progs[j])
				}
			}
		}
	}
}

// TestMutationInvalidatesMemo is the arena-staleness regression test:
// a Select that memoized its result must never serve the pre-mutation
// memo after the document changes — the result memo and navigation
// arrays are both keyed by (tree, generation).
func TestMutationInvalidatesMemo(t *testing.T) {
	ctx := context.Background()
	src := `q(X) :- label_new(X). ?- q.`
	t.Run("bitmap", func(t *testing.T) {
		tr := tree.MustParse("a(b(c),d)")
		q, err := Compile(src, LangDatalog)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := q.Select(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 0 {
			t.Fatalf("pre-mutation select = %v, want empty", ids)
		}
		a := tr.Arena()
		id, err := a.InsertSubtree(a.NewDelta(), 0, 0, tree.New("new"))
		if err != nil {
			t.Fatal(err)
		}
		ids, err = q.Select(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ids) != fmt.Sprint([]int32{id}) {
			t.Fatalf("post-mutation select = %v, want [%d] (stale memo?)", ids, id)
		}
		if err := a.RemoveSubtree(a.NewDelta(), id); err != nil {
			t.Fatal(err)
		}
		ids, err = q.Select(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 0 {
			t.Fatalf("post-removal select = %v, want empty (stale memo?)", ids)
		}
	})

	// The automaton reads the pointer view, so its document is edited
	// at the pointer level and reindexed; its memo is keyed the same.
	t.Run("automaton", func(t *testing.T) {
		tr := tree.MustParse("a(b(c),d)")
		q, err := Compile("label_new(x)", LangMSO)
		if err != nil {
			t.Fatal(err)
		}
		for step, want := range []string{"[]", "[4]", "[]"} {
			switch step {
			case 1:
				tr.Root.Add(tree.New("new"))
				tr.Reindex()
			case 2:
				tr.Root.Children = tr.Root.Children[:2]
				tr.Reindex()
			}
			ids, err := q.Select(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ids) != want {
				t.Fatalf("step %d: select = %v, want %s (stale memo?)", step, ids, want)
			}
		}
	})

	t.Run("fused-set", func(t *testing.T) {
		tr := tree.MustParse("a(b(c),d)")
		q1, err := Compile(src, LangDatalog)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := Compile(`q(X) :- leaf(X). ?- q.`, LangDatalog)
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewQuerySet(q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		res := set.Run(ctx, tr)
		if len(res[0].IDs) != 0 || res[0].Err != nil || res[1].Err != nil {
			t.Fatalf("pre-mutation set run: %+v", res)
		}
		a := tr.Arena()
		id, err := a.InsertSubtree(a.NewDelta(), 0, 2, tree.New("new"))
		if err != nil {
			t.Fatal(err)
		}
		res = set.Run(ctx, tr)
		if res[0].Err != nil || fmt.Sprint(res[0].IDs) != fmt.Sprint([]int32{id}) {
			t.Fatalf("post-mutation fused member = %v (err %v), want [%d] (stale memo?)", res[0].IDs, res[0].Err, id)
		}
		// The new leaf must also appear in the second member's result.
		found := false
		for _, v := range res[1].IDs {
			if v == int(id) {
				found = true
			}
		}
		if !found {
			t.Fatalf("post-mutation leaf member = %v, missing new node %d (stale memo?)", res[1].IDs, id)
		}
	})
}

// TestIncrementalRowEditCounts is the sibling-chain cascade
// regression test, in counts only: on a 1,100-row product listing
// under the fused //td[b], //tr[td] and //td/em wrappers, a one-row
// remove and a one-row insert at row 2 must each delete at most twice
// the row's own facts — not every later row's subtree, as deleting
// every fact with a derivation through the edited sibling chain did.
func TestIncrementalRowEditCounts(t *testing.T) {
	ctx := context.Background()
	set, doc, table, rows := listingFleet(t)

	// The row's own facts: every relation of the fused program, at the
	// nodes of row 2's subtree.
	full, err := eval.NewBitmapPlan(set.fused.Plan().Program())
	if err != nil {
		t.Fatal(err)
	}
	db, err := full.Run(eval.NavOf(doc.Tree().Arena()))
	if err != nil {
		t.Fatal(err)
	}
	inRow := map[int]bool{}
	var mark func(n *tree.Node)
	mark = func(n *tree.Node) {
		inRow[n.ID] = true
		for _, c := range n.Children {
			mark(c)
		}
	}
	mark(rows[2])
	own := 0
	for _, pred := range db.Preds() {
		for _, v := range db.UnarySet(pred) {
			if inRow[v] {
				own++
			}
		}
	}

	edit := func(what string, apply func() error) {
		t.Helper()
		set.RunIncremental(ctx, doc) // the maintainer is built on first use
		before := doc.Stats().Inc
		if err := apply(); err != nil {
			t.Fatal(err)
		}
		for _, r := range set.RunIncremental(ctx, doc) {
			if r.Err != nil {
				t.Fatalf("%s: %v", what, r.Err)
			}
		}
		after := doc.Stats().Inc
		if after.Applies != before.Applies+1 || after.Fallbacks != before.Fallbacks {
			t.Fatalf("%s: %d windows applied, %d fell back; want one maintained window", what,
				after.Applies-before.Applies, after.Fallbacks-before.Fallbacks)
		}
		if del := after.Overdeleted - before.Overdeleted; del > 2*own {
			t.Fatalf("%s: deleted %d facts, the row has %d of its own", what, del, own)
		}
		t.Logf("%s: deleted %d facts, re-proved %d; the row has %d of its own", what,
			after.Overdeleted-before.Overdeleted, after.Reproved-before.Reproved, own)
	}
	edit("remove row 2", func() error { return doc.RemoveSubtree(rows[2].ID) })
	edit("insert row 2", func() error {
		_, err := doc.InsertSubtree(table.ID, 2, tree.MustParse("tr(td(#text),td(b(#text)),td(em(#text)))").Root)
		return err
	})
}

// listingFleet fuses the //td[b], //tr[td] and //td/em wrappers and
// opens a live document over a 1,100-row product listing, returning
// its table and product rows.
func listingFleet(t *testing.T) (*QuerySet, *Document, *tree.Node, []*tree.Node) {
	t.Helper()
	var qs []*CompiledQuery
	for _, src := range []string{"//td[b]", "//tr[td]", "//td/em"} {
		q, err := Compile(src, LangXPath)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	set, err := NewQuerySet(qs...)
	if err != nil {
		t.Fatal(err)
	}
	if set.FusedLen() != len(qs) {
		t.Fatalf("fused %d of %d wrappers", set.FusedLen(), len(qs))
	}
	doc := NewDocument(ParseHTML(html.ProductListing(rand.New(rand.NewSource(1)), 1100)))
	var table *tree.Node
	var rows []*tree.Node
	for _, n := range doc.Tree().Nodes {
		switch {
		case n.Label == "table":
			table = n
		case n.Label == "tr" && len(n.Children) == 3 && n.Children[0].Label == "td":
			rows = append(rows, n)
		}
	}
	if table == nil || len(rows) != 1100 {
		t.Fatalf("listing has table %v and %d product rows", table != nil, len(rows))
	}
	return set, doc, table, rows
}

// TestIncrementalCrossover drives the fused listing fleet through
// windows that delete past the crossover and are re-solved from
// scratch — one that stops part-way through the delete phase (400 of
// 1,100 rows removed) and one that removes the whole table — with an
// ordinary maintained edit after each. Every window's results must
// equal a from-scratch run, and exactly the two large windows may fall
// back.
func TestIncrementalCrossover(t *testing.T) {
	ctx := context.Background()
	set, doc, table, rows := listingFleet(t)
	set.RunIncremental(ctx, doc) // the maintainer is built on first use
	window := func(what string, fallback bool, apply func() error) {
		t.Helper()
		before := doc.Stats().Inc
		if err := apply(); err != nil {
			t.Fatal(err)
		}
		got := set.RunIncremental(ctx, doc)
		after := doc.Stats().Inc
		wantFB := before.Fallbacks
		if fallback {
			wantFB++
		}
		if after.Applies != before.Applies+1 || after.Fallbacks != wantFB {
			t.Fatalf("%s: %d windows applied, %d fell back; want 1 and %v", what,
				after.Applies-before.Applies, after.Fallbacks-before.Fallbacks, fallback)
		}
		want := set.Run(ctx, doc.Snapshot())
		live := doc.LiveNodes()
		for i := range got {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("%s: member %d: incremental error %v, full error %v", what, i, got[i].Err, want[i].Err)
			}
			mapped := make([]int, len(want[i].IDs))
			for j, v := range want[i].IDs {
				mapped[j] = live[v]
			}
			sort.Ints(mapped)
			if fmt.Sprint(got[i].IDs) != fmt.Sprint(mapped) {
				t.Fatalf("%s: member %d: incremental %d nodes, from scratch %d", what, i, len(got[i].IDs), len(mapped))
			}
		}
	}
	insertRow := func() error {
		_, err := doc.InsertSubtree(table.ID, 2, tree.MustParse("tr(td(#text),td(b(#text)),td(em(#text)))").Root)
		return err
	}
	window("remove 400 rows", true, func() error {
		for _, r := range rows[1:401] {
			if err := doc.RemoveSubtree(r.ID); err != nil {
				return err
			}
		}
		return nil
	})
	window("insert a row after the re-solve", false, insertRow)
	window("remove a row after the re-solve", false, func() error { return doc.RemoveSubtree(rows[500].ID) })
	window("remove the table", true, func() error { return doc.RemoveSubtree(table.ID) })
	window("insert a table after the re-solve", false, func() error {
		_, err := doc.InsertSubtree(table.Parent.ID, 0, tree.MustParse("table(tr(td(b),td(em)),tr(td))").Root)
		return err
	})
}
