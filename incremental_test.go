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
// over randomly edited documents, with the incremental results of
// every serving engine/level arm — plus all-linear and all-bitmap
// fused QuerySets, and a semi-naive replay at both levels — compared
// against the naive replay-from-scratch after every edit window.
func TestIncrementalDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(fuzzSeed(t) ^ 0x9e3779b9))
	chainRng := rand.New(rand.NewSource(fuzzSeed(t) ^ 0x85ebca6b))
	labels := []string{"a", "b", "c"}
	iters := fuzzIterations(t)/4 + 2

	for i := 0; i < iters; i++ {
		progs := []*Program{randomMonadicProgram(rng), randomMonadicProgram(rng), randomMonadicProgram(rng)}
		tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 25 + rng.Intn(55), MaxChildren: 5})
		incrementalCase(t, ctx, i, rng, progs, tr, labels)
		// Long-chain arm: the same programs maintained on a wide or
		// deep tree, with trees and edits from a stream of their own so
		// the cases above do not change.
		incrementalCase(t, ctx, i, chainRng, progs, longChainTree(chainRng, labels), labels)
	}
}

// incrementalCase maintains progs[0] (on both engines at both
// optimization levels) and the fused set of progs (on both engines) on
// a live document over tr through six random edit windows, checking
// every maintained model against replay from scratch after each.
func incrementalCase(t *testing.T, ctx context.Context, i int, rng *rand.Rand, progs []*Program, tr *Tree, labels []string) {
	t.Helper()
	engines := []Engine{EngineLinear, EngineBitmap}
	levels := []OptLevel{OptNone, OptFull}
	p := progs[0]
	preds := p.IntensionalPreds()
	doc := NewDocument(tr)

	// One maintained arm per engine × optimization level, all fed
	// the same edit script.
	type arm struct {
		e   Engine
		lvl OptLevel
		q   *CompiledQuery
	}
	var arms []arm
	for _, e := range engines {
		for _, lvl := range levels {
			q, err := CompileProgram(p.Clone(), WithEngine(e), WithOptLevel(lvl))
			if err != nil {
				t.Fatalf("case %d: compiling %v/%v: %v\nprogram:\n%s", i, e, lvl, err, p)
			}
			arms = append(arms, arm{e, lvl, q})
		}
	}

	// All-linear and all-bitmap fused sets over the same namespace.
	sets := map[Engine]*QuerySet{}
	for _, e := range []Engine{EngineLinear, EngineBitmap} {
		qs := make([]*CompiledQuery, len(progs))
		for j, mp := range progs {
			q, err := CompileProgram(mp.Clone(), WithEngine(e), WithOptLevel(OptFull))
			if err != nil {
				t.Fatalf("case %d: compiling set member %d on %v: %v\nprogram:\n%s", i, j, e, err, mp)
			}
			qs[j] = q
		}
		set, err := NewQuerySet(qs...)
		if err != nil {
			t.Fatalf("case %d: fusing on %v: %v", i, e, err)
		}
		if set.FusedLen() != len(progs) {
			t.Fatalf("case %d: fused %d of %d %v members", i, set.FusedLen(), len(progs), e)
		}
		sets[e] = set
	}

	for step := 0; step < 6; step++ {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			randomDocEdit(t, rng, doc, labels)
		}
		oracle := replayUnary(t, ctx, p, doc, preds)
		for _, lvl := range levels {
			semi := replayWith(t, ctx, p, doc, preds, EngineSemiNaive, lvl)
			for _, pred := range preds {
				if got := fmt.Sprint(semi[pred]); got != fmt.Sprint(oracle[pred]) {
					t.Fatalf("case %d step %d: seminaive/%v replay: %s = %s, naive %v\nprogram:\n%s",
						i, step, lvl, pred, got, oracle[pred], p)
				}
			}
		}
		for _, a := range arms {
			db, err := a.q.EvalIncremental(ctx, doc)
			if err != nil {
				t.Fatalf("case %d step %d: incremental %v/%v: %v\nprogram:\n%s", i, step, a.e, a.lvl, err, p)
			}
			for _, pred := range preds {
				if got := fmt.Sprint(db.UnarySet(pred)); got != fmt.Sprint(oracle[pred]) {
					t.Fatalf("case %d step %d: incremental %v/%v: %s = %s, replay %v\nprogram:\n%s",
						i, step, a.e, a.lvl, pred, got, oracle[pred], p)
				}
			}
		}
		for e, set := range sets {
			res := set.RunIncremental(ctx, doc)
			for j, r := range res {
				if r.Err != nil {
					t.Fatalf("case %d step %d: fused %v member %d: %v\nprogram:\n%s", i, step, e, j, r.Err, progs[j])
				}
				mo := replayUnary(t, ctx, progs[j], doc, progs[j].IntensionalPreds())
				for _, pred := range progs[j].IntensionalPreds() {
					got, want := r.Assignment[pred], mo[pred]
					if fmt.Sprint(got) != fmt.Sprint(want) && (len(got) > 0 || len(want) > 0) {
						t.Fatalf("case %d step %d: fused %v member %d: %s = %v, replay %v\nprogram:\n%s",
							i, step, e, j, pred, got, want, progs[j])
					}
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
	for _, e := range []Engine{EngineLinear, EngineBitmap} {
		t.Run(e.String(), func(t *testing.T) {
			tr := tree.MustParse("a(b(c),d)")
			q, err := Compile(src, LangDatalog, WithEngine(e))
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
	}

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
		q1, err := Compile(src, LangDatalog, WithEngine(EngineBitmap))
		if err != nil {
			t.Fatal(err)
		}
		q2, err := Compile(`q(X) :- leaf(X). ?- q.`, LangDatalog, WithEngine(EngineBitmap))
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
