// Example 3.2 of the paper, end to end: the monadic datalog program
// that selects the nodes rooting subtrees with an even number of
// "a"-labeled nodes, evaluated with a full T_P fixpoint trace on the
// paper's own 4-node tree, then compiled once through the unified API
// and run over a batch of larger documents with the Theorem 4.2
// engine.
package main

import (
	"context"
	"fmt"
	"log"

	mdlog "mdlog"
	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/paperex"
	"mdlog/internal/tree"
)

func main() {
	p := paperex.EvenAProgram() // Σ = {a}
	fmt.Println("Program (Example 3.2):")
	fmt.Print(p.String())

	t := paperex.Example32Tree()
	fmt.Println("Tree: root n1 with children n2, n3, n4, all labeled a")
	fmt.Print(t.Pretty())

	// The paper's stage-by-stage fixpoint computation of T_P^ω.
	db := eval.TreeDB(t)
	stages, final, err := datalog.TraceEval(p, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFixpoint trace (new facts per T_P application):")
	for i, stage := range stages {
		fmt.Printf("  T^%d_P adds:", i+1)
		for _, a := range stage {
			fmt.Printf(" %s", a)
		}
		fmt.Println()
	}
	fmt.Printf("\nQuery result c0 = %v (the paper derives C0(n1), i.e. node 0)\n",
		final.UnarySet("c0"))

	// The same query compiled ONCE and fanned over several documents
	// via the Theorem 4.2 engine.
	q, err := mdlog.CompileProgram(paperex.EvenAProgram("b")) // Σ = {a, b}
	if err != nil {
		log.Fatal(err)
	}
	docs := []*mdlog.Tree{
		tree.MustParse("a(b(a,a),a(b,a(a)),b)"),
		tree.MustParse("a(a)"),
		tree.MustParse("b(a(a,b),b(b))"),
	}
	ctx := context.Background()
	for _, res := range (mdlog.Runner{}).SelectAll(ctx, q, docs) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("\nDocument %d:\n%s", res.Index, res.Doc.Pretty())
		fmt.Printf("even-a nodes (%s engine): %v\n", q.EngineName(), res.Nodes)
		fmt.Printf("reference count semantics:    %v\n", paperex.EvenASpec(res.Doc))
	}
}
