package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// incrementalPrograms covers the delta-maintainable fragment: label
// tests, every node class, every binary relation (including a child_k
// and a non-spanning-tree check atom), downward and upward recursion —
// plus one disconnected program that must take the fallback path.
var incrementalPrograms = []struct {
	name     string
	src      string
	fallback bool
}{
	{"descendant", `
		q(X) :- label_a(X).
		q(X) :- firstchild(Y, X), q(Y).
		q(X) :- nextsibling(Y, X), q(Y).
		?- q.`, false},
	{"classes-childk", `
		q(X) :- child_2(Y, X), label_b(Y).
		q(X) :- leaf(X), lastsibling(X).
		q(X) :- firstsibling(X), label_c(X).
		?- q.`, false},
	{"upward", `
		p(X) :- lastchild(X, Y), label_c(Y).
		p(X) :- firstchild(X, Y), p(Y).
		q(X) :- p(X), firstsibling(X).
		?- q.`, false},
	{"check-edge", `
		q(X) :- firstchild(X, Y), nextsibling(Y, Z), lastchild(X, Z).
		q(X) :- root(X), leaf(X).
		?- q.`, false},
	{"disconnected-fallback", `
		q(X) :- label_a(X), label_b(Y), leaf(Y).
		?- q.`, true},
}

// headPreds returns the program's IDB predicates, the relations the
// oracles compare.
func headPreds(p *datalog.Program) []string {
	seen := map[string]bool{}
	var preds []string
	for _, r := range p.Rules {
		if len(r.Head.Args) == 1 && !seen[r.Head.Pred] {
			seen[r.Head.Pred] = true
			preds = append(preds, r.Head.Pred)
		}
	}
	return preds
}

// TestIncrementalEval mutates random documents step by step and checks
// the maintained model after every delta against three oracles: a full
// linear-engine run and a full bitmap-engine run over the mutated
// arena (dead-aware evaluation), and a from-scratch run over the
// canonical re-parsed live tree, mapped back to arena ids through the
// live preorder.
func TestIncrementalEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	labels := []string{"a", "b", "c"}
	for _, tc := range incrementalPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog := datalog.MustParseProgram(tc.src)
			pl, err := NewPlan(prog)
			if err != nil {
				t.Fatal(err)
			}
			preds := headPreds(prog)
			for trial := 0; trial < 6; trial++ {
				tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 40 + rng.Intn(80), MaxChildren: 5})
				a := tr.Arena()
				inc := pl.Bitmap().NewIncState(a)
				if inc.Fallback() != tc.fallback {
					t.Fatalf("fallback = %v, want %v", inc.Fallback(), tc.fallback)
				}
				for step := 0; step < 12; step++ {
					d := a.NewDelta()
					for op := 0; op < 1+rng.Intn(3); op++ {
						randomEdit(t, rng, a, d, labels)
					}
					if err := inc.Apply(d); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					got, err := inc.Database()
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					full, err := pl.Run(NavOf(a))
					if err != nil {
						t.Fatal(err)
					}
					if diff := SameResults(got, full, preds); diff != "" {
						t.Fatalf("%s trial %d step %d: incremental vs full linear: %s", tc.name, trial, step, diff)
					}
					fullBm, err := pl.Bitmap().Run(NavOf(a))
					if err != nil {
						t.Fatal(err)
					}
					if diff := SameResults(got, fullBm, preds); diff != "" {
						t.Fatalf("%s trial %d step %d: incremental vs full bitmap: %s", tc.name, trial, step, diff)
					}
					checkAgainstLiveTree(t, pl, a, got, preds)
				}
			}
		})
	}
}

// randomEdit applies one random structural or text edit, recording it
// in d.
func randomEdit(t *testing.T, rng *rand.Rand, a *tree.Arena, d *tree.ArenaDelta, labels []string) {
	t.Helper()
	live := a.LivePreorder()
	switch op := rng.Intn(4); {
	case op == 0 && len(live) > 1: // remove a non-root subtree
		if err := a.RemoveSubtree(d, live[1+rng.Intn(len(live)-1)]); err != nil {
			t.Fatal(err)
		}
	case op <= 2: // insert a small subtree
		sub := tree.New(labels[rng.Intn(len(labels))])
		for i := rng.Intn(3); i > 0; i-- {
			sub.Add(tree.New(labels[rng.Intn(len(labels))]))
		}
		parent := live[rng.Intn(len(live))]
		if _, err := a.InsertSubtree(d, parent, rng.Intn(4), sub); err != nil {
			t.Fatal(err)
		}
	default: // retext (no τ_ur fact changes)
		if err := a.SetText(d, live[rng.Intn(len(live))], fmt.Sprintf("t%d", rng.Int())); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAgainstLiveTree evaluates the plan from scratch on the
// canonical re-parsed live tree and compares with the incremental
// result through the preorder ↔ arena-id mapping.
func checkAgainstLiveTree(t *testing.T, pl *Plan, a *tree.Arena, got *datalog.Database, preds []string) {
	t.Helper()
	lt := a.LiveTree()
	ref, err := pl.Run(NewNav(lt))
	if err != nil {
		t.Fatal(err)
	}
	pre := a.LivePreorder() // preorder position -> arena id
	for _, pred := range preds {
		refSet := ref.UnarySet(pred)
		want := make(map[int]bool, len(refSet))
		for _, i := range refSet {
			want[int(pre[i])] = true
		}
		gotSet := got.UnarySet(pred)
		if len(gotSet) != len(want) {
			t.Fatalf("%s: live-tree oracle has %d facts, incremental %d (%v vs %v via %v)", pred, len(want), len(gotSet), refSet, gotSet, pre)
		}
		for _, v := range gotSet {
			if !want[v] {
				t.Fatalf("%s: incremental fact at arena id %d not justified by live-tree oracle", pred, v)
			}
		}
	}
}

// TestIncStateBehind ensures a skipped delta is detected rather than
// served stale.
func TestIncStateBehind(t *testing.T) {
	a := tree.MustParse("a(b(c),d)").Arena()
	prog := datalog.MustParseProgram(`q(X) :- leaf(X). ?- q.`)
	pl, err := NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	inc := pl.Bitmap().NewIncState(a)
	if _, err := inc.Database(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.InsertSubtree(a.NewDelta(), 0, 0, tree.New("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Database(); err == nil {
		t.Fatal("Database served a stale generation without error")
	}
}

// TestIncStateComposedWindows applies several edits as one composed
// window and as separate windows, expecting identical models.
func TestIncStateComposedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prog := datalog.MustParseProgram(`
		q(X) :- label_a(X).
		q(X) :- firstchild(Y, X), q(Y).
		q(X) :- nextsibling(Y, X), q(Y).
		?- q.`)
	pl, err := NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"a", "b"}
	for trial := 0; trial < 10; trial++ {
		tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 30, MaxChildren: 4})
		a := tr.Arena()
		inc := pl.Bitmap().NewIncState(a)
		var ds []*tree.ArenaDelta
		for i := 0; i < 4; i++ {
			d := a.NewDelta()
			randomEdit(t, rng, a, d, labels)
			ds = append(ds, d)
		}
		if err := inc.Apply(tree.ComposeDeltas(ds)); err != nil {
			t.Fatal(err)
		}
		got, err := inc.Database()
		if err != nil {
			t.Fatal(err)
		}
		full, err := pl.Run(NavOf(a))
		if err != nil {
			t.Fatal(err)
		}
		if diff := SameResults(got, full, []string{"q"}); diff != "" {
			t.Fatalf("trial %d: composed window diverged: %s", trial, diff)
		}
	}
}
