package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// chainPrograms recurse along sibling and child chains in both
// directions: downward from the root, upward from the last sibling,
// and mutually through lastchild.
var chainPrograms = map[string]string{
	"down": `
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
q(X) :- m(X), label_b(X).
?- q.`,
	"up": `
u(X) :- lastsibling(X), label_a(X).
u(X) :- nextsibling(X,Y), u(Y), label_a(X).
u(X) :- nextsibling(X,Y), u(Y), label_b(X).
r(X) :- firstchild(X,Y), u(Y).
?- r.`,
	"mutual": `
p(X) :- leaf(X), lastsibling(X).
s(X) :- nextsibling(X,Y), p(Y).
p(X) :- s(X).
t(X) :- lastchild(X,Y), p(Y).
?- t.`,
}

// workBound is (Σ body IDB occurrences)·|dom| for a prepared plan —
// the Theorem 4.2 bound on the worklist's scalar body checks: every
// fact is pushed once and tried once per body occurrence.
func workBound(bp *BitmapPlan, dom int) int {
	occ := 0
	for _, br := range bp.rules {
		occ += len(br.lr.idbUnary)
	}
	return occ * dom
}

// passBound bounds the full-domain columnar passes of one solve: each
// rule once, plus once per propositional predicate it reads (a flip
// re-runs it) — however many recursion steps the program takes.
func passBound(bp *BitmapPlan) int {
	n := len(bp.rules)
	for _, deps := range bp.propDeps {
		n += len(deps)
	}
	return n
}

// flatChain is a root over n children labelled a and b alternately —
// a sibling chain n steps long.
func flatChain(n int) *tree.Tree {
	root := tree.New("r")
	for i := 0; i < n; i++ {
		root.Add(tree.New([]string{"a", "b"}[i%2]))
	}
	return tree.NewTree(root)
}

// TestBitmapWorkBound pins the O(|P|·|dom|) bound by counting work
// units (counts, not timings) on a 10,000-sibling chain, where a
// round-per-step fixpoint would run 10,000 full-domain rounds:
// evalAnchor calls stay within workBound and columnar passes within
// passBound. The result must match the linear engine.
func TestBitmapWorkBound(t *testing.T) {
	tr := flatChain(10000)
	nav := NewNav(tr)
	for name, src := range chainPrograms {
		t.Run(name, func(t *testing.T) {
			p := datalog.MustParseProgram(src)
			bp, err := NewBitmapPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			st := bp.acquire(nav)
			st.solve()
			checks, bound := st.anchorChecks, workBound(bp, nav.Dom())
			passes := st.columnarPasses
			got := materialize(bp.pl, st.unary, st.props, st.dom)
			bp.release(st)
			if checks > bound {
				t.Fatalf("%d evalAnchor calls, bound (Σ body IDB occurrences)·|dom| = %d", checks, bound)
			}
			if passes > passBound(bp) {
				t.Fatalf("%d columnar passes, bound %d", passes, passBound(bp))
			}
			want, err := LinearTree(p, tr)
			if err != nil {
				t.Fatal(err)
			}
			if diff := SameResults(want, got, p.IntensionalPreds()); diff != "" {
				t.Fatalf("bitmap differs from linear: %s", diff)
			}
		})
	}
}

// TestIncStateWorkBound is TestBitmapWorkBound through incremental
// maintenance on a mutated 10,000-sibling chain. The initial
// evaluation over the mutated arena (dead rows, appended rows) stays
// within the bound. Each Apply may add the DRed seeds on top: one
// check per rule slot per affected row, and one per rule deriving an
// overdeleted fact's predicate. The maintained model must match a full
// run after every Apply.
func TestIncStateWorkBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b"}
	for name, src := range chainPrograms {
		t.Run(name, func(t *testing.T) {
			p := datalog.MustParseProgram(src)
			pl, err := NewPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			a := flatChain(10000).Arena()
			pre := a.NewDelta()
			for op := 0; op < 20; op++ {
				randomEdit(t, rng, a, pre, labels)
			}
			inc := pl.NewIncState(a)
			bp := inc.bp
			if checks, bound := inc.run.anchorChecks, workBound(bp, a.Len()); checks > bound {
				t.Fatalf("initial run: %d evalAnchor calls, bound %d", checks, bound)
			}
			if passes := inc.run.columnarPasses; passes > passBound(bp) {
				t.Fatalf("initial run: %d columnar passes, bound %d", passes, passBound(bp))
			}
			slots := 0
			for _, br := range bp.rules {
				slots += br.lr.nvars
			}
			for step := 0; step < 8; step++ {
				d := a.NewDelta()
				for op := 0; op < 4; op++ {
					randomEdit(t, rng, a, d, labels)
				}
				before := inc.Stats().Overdeleted
				if err := inc.Apply(d); err != nil {
					t.Fatal(err)
				}
				affected := len(d.Touched) + len(d.Added) + len(d.Removed)
				bound := workBound(bp, a.Len()) + slots*affected + len(bp.rules)*(inc.Stats().Overdeleted-before)
				if checks := inc.run.anchorChecks; checks > bound {
					t.Fatalf("step %d: %d evalAnchor calls, bound %d", step, checks, bound)
				}
				if passes := inc.run.columnarPasses; passes != 0 {
					t.Fatalf("step %d: %d columnar passes, want none", step, passes)
				}
				got, err := inc.Database()
				if err != nil {
					t.Fatal(err)
				}
				want, err := pl.Run(NavOf(a))
				if err != nil {
					t.Fatal(err)
				}
				if diff := SameResults(want, got, p.IntensionalPreds()); diff != "" {
					t.Fatalf("step %d: incremental differs from full: %s", step, diff)
				}
			}
		})
	}
}

// sameDatabase reports the first difference between two databases:
// relation names (Preds), arities, or tuple lists.
func sameDatabase(a, b *datalog.Database) string {
	if pa, pb := a.Preds(), b.Preds(); !slices.Equal(pa, pb) {
		return fmt.Sprintf("relations %v vs %v", pa, pb)
	}
	for _, pred := range a.Preds() {
		ra, rb := a.RelOrNil(pred), b.RelOrNil(pred)
		if ra.Arity != rb.Arity {
			return fmt.Sprintf("%s: arity %d vs %d", pred, ra.Arity, rb.Arity)
		}
		if ta, tb := fmt.Sprint(ra.Tuples()), fmt.Sprint(rb.Tuples()); ta != tb {
			return fmt.Sprintf("%s: %s vs %s", pred, ta, tb)
		}
	}
	return ""
}

// TestVisibleOutput checks that visible-only output builds exactly the
// database a full run followed by Database.Project would: for the
// linear, bitmap, fused and incremental plans, over empty, nil and
// mixed projections, with true and false propositions and an empty
// unary relation.
func TestVisibleOutput(t *testing.T) {
	programs := map[string]string{
		"props": `
s :- label_b(X), leaf(X).
f :- label_zz(X).
q(X) :- label_a(X), s.
r(X) :- label_c(X), f.
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
?- q.`,
		"recursive": `
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
e(X) :- m(X), label_zz(X).
q(X) :- m(X), label_b(X), leaf(X).
?- q.`,
	}
	projections := [][]string{
		nil,
		{},
		{"q"},
		{"s"},
		{"f"},
		{"r", "e"},
		{"nosuch", "q", "q", "m"},
		{"q", "s", "f", "r", "m", "e"},
	}
	tr := tree.MustParse("r(a(b,c),b(a(b)),c,a(c(b)))")
	for name, src := range programs {
		p := datalog.MustParseProgram(src)
		full, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, vis := range projections {
			what := fmt.Sprintf("%s %q", name, vis)
			a := tree.MustParse(tr.String()).Arena()
			nav := NavOf(a)
			all, err := full.Run(nav)
			if err != nil {
				t.Fatal(err)
			}
			want := all
			if vis != nil {
				want = all.Project(vis)
			}
			pl := full.Visible(vis)
			lin, err := pl.Run(nav)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameDatabase(want, lin); diff != "" {
				t.Errorf("%s linear: %s", what, diff)
			}
			bm, err := pl.Bitmap().Run(nav)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameDatabase(want, bm); diff != "" {
				t.Errorf("%s bitmap: %s", what, diff)
			}

			// Incremental: the initial model and one edited generation.
			inc := pl.NewIncState(a)
			for step := 0; step < 2; step++ {
				got, err := inc.Database()
				if err != nil {
					t.Fatal(err)
				}
				all, err := full.Run(NavOf(a))
				if err != nil {
					t.Fatal(err)
				}
				want := all
				if vis != nil {
					want = all.Project(vis)
				}
				if diff := sameDatabase(want, got); diff != "" {
					t.Errorf("%s incremental step %d: %s", what, step, diff)
				}
				d := a.NewDelta()
				if _, err := a.InsertSubtree(d, 0, 1, tree.New("b")); err != nil {
					t.Fatal(err)
				}
				if err := inc.Apply(d); err != nil {
					t.Fatal(err)
				}
			}

			// Fused: the shared pass keeps the union of the members'
			// projections, and Split is unchanged.
			if vis == nil {
				continue
			}
			half := len(vis) / 2
			members := []FusedMember{{Name: "x", Project: map[string]string{}}, {Name: "y", Project: map[string]string{}}}
			for i, pred := range vis {
				members[min(i/max(half, 1), 1)].Project["v_"+pred] = pred
			}
			for _, e := range []Engine{EngineLinear, EngineBitmap} {
				fp, err := NewFusedPlanEngine(p, members, e)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fp.RunFull(NavOf(a))
				if err != nil {
					t.Fatal(err)
				}
				all, err := full.Run(NavOf(a))
				if err != nil {
					t.Fatal(err)
				}
				want := all.Project(vis)
				if diff := sameDatabase(want, got); diff != "" {
					t.Errorf("%s fused %v: %s", what, e, diff)
				}
				gotSplit, wantSplit := fp.Split(got), fp.Split(all)
				for i := range members {
					if diff := sameDatabase(wantSplit[i], gotSplit[i]); diff != "" {
						t.Errorf("%s fused %v member %d: %s", what, e, i, diff)
					}
				}
			}
		}
	}
}
