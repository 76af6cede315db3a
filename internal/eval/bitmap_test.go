package eval

import (
	"math/rand"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// bitmapVsLinear evaluates p on tr with both grounding engines and
// fails on any visible difference.
func bitmapVsLinear(t *testing.T, p *datalog.Program, tr *tree.Tree, what string) {
	t.Helper()
	want, err := LinearTree(p, tr)
	if err != nil {
		t.Fatalf("%s: linear: %v", what, err)
	}
	got, err := BitmapTree(p, tr)
	if err != nil {
		t.Fatalf("%s: bitmap: %v", what, err)
	}
	if diff := SameResults(want, got, p.IntensionalPreds()); diff != "" {
		t.Fatalf("%s: bitmap differs from linear on %s (tree %s)", what, diff, tr)
	}
}

func TestBitmapMatchesLinearHandPicked(t *testing.T) {
	programs := map[string]string{
		// Non-recursive select with a gather step and label tests.
		"select": `
q(X) :- label_a(X), firstchild(X,Y), label_b(Y).
?- q.`,
		// Downward recursion (firstchild/nextsibling closure).
		"mark-down": `
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
q(X) :- m(X), label_b(X).
?- q.`,
		// Upward recursion through inverse steps.
		"mark-up": `
u(X) :- leaf(X), label_a(X).
u(X) :- firstchild(X,Y), u(Y).
u(X) :- nextsibling(X,Y), u(Y).
?- u.`,
		// Propositional helpers: disconnected body components split by
		// SplitConnected into conn_* prop rules.
		"disconnected": `
q(X) :- label_a(X), label_b(Y), firstchild(Y,Z).
?- q.`,
		// Mutual recursion plus lastchild and node classes.
		"mutual": `
p(X) :- lastsibling(X), label_b(X).
r(Y) :- p(X), lastchild(Y,X).
p(Y) :- r(X), firstchild(X,Y).
?- p.`,
		// Non-spanning-tree check atom (a cycle in the query graph).
		"cycle-check": `
q(X) :- firstchild(X,Y), nextsibling(Y,Z), firstchild(X,W), nextsibling(W,Z).
?- q.`,
		// child_2 of the ranked signature.
		"child-k": `
q(X) :- child_2(Y,X), label_a(Y).
?- q.`,
	}
	trees := []string{
		"a",
		"b",
		"a(b)",
		"b(a,b(a,a),c(a,b))",
		"c(a(a(a)),b,a)",
		"a(b(c,a,b),b(a),a(a,b,c,a))",
	}
	for name, src := range programs {
		p := datalog.MustParseProgram(src)
		for _, ts := range trees {
			bitmapVsLinear(t, p, tree.MustParse(ts), name+" on "+ts)
		}
	}
}

func TestBitmapMatchesLinearRandomTrees(t *testing.T) {
	p := datalog.MustParseProgram(`
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
deep(X) :- m(X), leaf(X), lastsibling(X).
q(X) :- deep(X), label_a(X).
?- q.`)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		tr := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b", "c"}, Size: 1 + rng.Intn(80), MaxChildren: 5})
		bitmapVsLinear(t, p, tr, "random tree")
	}
}

// TestBitmapWordBoundaries pins the domain sizes where tail-masking
// bugs would hide: chains and flats of 63, 64 and 65 nodes.
func TestBitmapWordBoundaries(t *testing.T) {
	p := datalog.MustParseProgram(`
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
?- m.`)
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129} {
		bitmapVsLinear(t, p, tree.Chain(n, "a"), "chain")
		bitmapVsLinear(t, p, tree.Flat(n, "a"), "flat")
	}
	// Every node must be marked on both shapes — a direct check on top
	// of the differential one.
	for _, n := range []int{63, 64, 65} {
		res, err := BitmapTree(p, tree.Chain(n, "a"))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.UnarySet("m")); got != n {
			t.Fatalf("chain(%d): marked %d nodes", n, got)
		}
	}
}

func TestBitmapPlanReusableAcrossDocuments(t *testing.T) {
	p := datalog.MustParseProgram(`
q(X) :- label_a(X), firstchild(X,Y), label_b(Y).
?- q.`)
	bp, err := NewBitmapPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Program() != p || bp.QueryPred() != "q" {
		t.Fatalf("accessors: program %v pred %q", bp.Program() == p, bp.QueryPred())
	}
	for _, ts := range []string{"a(b)", "b(a(b),a(c))", "a"} {
		tr := tree.MustParse(ts)
		got, err := bp.RunTree(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := LinearTree(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff := SameResults(want, got, p.IntensionalPreds()); diff != "" {
			t.Fatalf("reuse on %s: %s", ts, diff)
		}
	}
}

func TestBitmapRejectsNonLinearFragment(t *testing.T) {
	p := datalog.MustParseProgram(`
q(X) :- child(X,Y), label_b(Y).
?- q.`)
	if _, err := NewBitmapPlan(p); err == nil {
		t.Fatalf("child/2 accepted; want the Theorem 5.2 guidance error")
	}
}

func TestEngineNamesAndValidity(t *testing.T) {
	for _, name := range EngineNames() {
		e, err := ParseEngine(name)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", name, err)
		}
		if e.String() != name {
			t.Fatalf("round trip %q -> %v", name, e)
		}
	}
	if _, err := EvalOnTree(datalog.MustParseProgram(`q(X) :- leaf(X).`), tree.MustParse("a(b)"), Engine(99)); err == nil {
		t.Fatalf("EvalOnTree accepted Engine(99)")
	}
	if _, err := ParseEngine("bitmask"); err == nil {
		t.Fatalf("ParseEngine accepted an unknown name")
	}
}
