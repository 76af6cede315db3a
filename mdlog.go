// Package mdlog is a from-scratch Go implementation of
//
//	Georg Gottlob and Christoph Koch:
//	"Monadic Datalog and the Expressive Power of Languages for Web
//	Information Extraction", PODS 2002.
//
// The paper proves six query formalisms over trees equally expressive;
// this package makes them equally usable. Any of them compiles — once
// — through [Compile] into a [CompiledQuery] that runs over any number
// of documents, concurrently:
//
//	Language          Source syntax                         Paper
//	LangDatalog       p(X) :- label_td(X), child(X,Y).      Section 3, Thm 4.2
//	LangTMNF          datalog already in normal form        Definition 5.1
//	LangMSO           exists y (child(x,y) & label_b(y))    Section 2, Thm 4.4
//	LangXPath         //table/tr[td/b]/td                   Section 7 remark
//	LangCaterpillar   child*.label_td.child.label_b         Lemma 5.9, Cor 5.12
//	LangElog          item(x) :- root(r), subelem(p, r, x)  Section 6, Cor 6.4
//	LangSpanner       p(X,A) :- c(X), text(X,S),            extension: document
//	                       match(S, /(?<a>\d+)/, A).        spanners
//
// (Query automata, the sixth formalism of the equivalence, arrive via
// their datalog translations — [QAr.ToDatalog] / [SQAu] — and
// LangDatalog.) Each language normalizes onto one of three prepared
// plans: the Theorem 4.2 linear-time datalog engine (via the TMNF
// rewriting of Theorem 5.2 where needed), a deterministic tree
// automaton, or a direct evaluator for the fragments with no positive
// datalog translation. The seventh language steps beyond the paper's
// node-selecting equivalence: a spanner program pairs monadic-datalog
// node rules with span rules whose regex formulas compile to
// variable-set automata over node text and attribute values, returning
// span relations ([CompiledQuery.Spans]) instead of bare node ids.
//
// Documents come from [ParseHTML] / [ParseHTMLReader] (streaming,
// arena-backed) or term syntax via [ParseTree]; [Runner] fans a
// compiled query over document collections and streams with a bounded
// worker pool. Many wrappers over the same pages fuse into a
// [QuerySet] — one shared evaluation pass per document, per-wrapper
// results and error isolation. cmd/mdlogd serves a registry of
// compiled wrappers over HTTP (internal/service), including fused
// all-wrapper extraction (/extractall, /batchall).
//
// This file is a façade re-exporting the user-facing surface of the
// internal packages; see ARCHITECTURE.md for the theorem-by-theorem
// map of the paper onto the code, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the reproduction of the paper's results.
package mdlog

import (
	"context"
	"fmt"
	"io"

	"mdlog/internal/caterpillar"
	"mdlog/internal/datalog"
	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/mso"
	"mdlog/internal/qa"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
	"mdlog/internal/wrap"
	"mdlog/internal/xpath"
)

// Trees (Section 2).
type (
	// Tree is an ordered unranked labeled tree with document-order ids.
	Tree = tree.Tree
	// Node is a tree node.
	Node = tree.Node
	// RankedAlphabet assigns arities for ranked trees (τ_rk).
	RankedAlphabet = tree.RankedAlphabet
)

// ParseTree reads term syntax, e.g. "a(b,c(d))".
func ParseTree(s string) (*Tree, error) { return tree.Parse(s) }

// NewTree indexes a hand-built tree.
func NewTree(root *Node) *Tree { return tree.NewTree(root) }

// NewNode builds a node with children.
func NewNode(label string, children ...*Node) *Node { return tree.New(label, children...) }

// ParseHTML parses an HTML document into its tree (the pre-parsed
// document model the paper assumes as a front end).
func ParseHTML(src string) *Tree { return html.Parse(src) }

// ParseHTMLReader parses an HTML document from a stream: a single
// tokenizer pass builds the arena (struct-of-arrays) representation
// the evaluation engines index directly, without materializing the
// source as one string. The only possible error is a read error.
func ParseHTMLReader(r io.Reader) (*Tree, error) { return html.ParseReader(r) }

// Datalog (Section 3).
type (
	// Program is a datalog program.
	Program = datalog.Program
	// Rule is a datalog rule.
	Rule = datalog.Rule
	// Atom is a datalog atom.
	Atom = datalog.Atom
	// Term is a variable or constant.
	Term = datalog.Term
	// Database is a finite relational structure.
	Database = datalog.Database
)

// ParseProgram reads datalog syntax ("p(X) :- q(X,Y)." with an
// optional "?- p." query directive).
func ParseProgram(src string) (*Program, error) { return datalog.ParseProgram(src) }

// TreeDB materializes τ_ur (see eval options for extensions).
func TreeDB(t *Tree, opts ...eval.TreeDBOption) *Database { return eval.TreeDB(t, opts...) }

// Evaluation engines (Sections 3.2 and 4.1). Compile always serves
// with EngineBitmap; the constants select an engine only in
// EvalOnTree, where the other four run as oracles.
type Engine = eval.Engine

const (
	// EngineLinear is the Theorem 4.2 O(|P|·|dom|) engine.
	EngineLinear = eval.EngineLinear
	// EngineSemiNaive is generic semi-naive evaluation (reference).
	EngineSemiNaive = eval.EngineSemiNaive
	// EngineNaive is the reference naive fixpoint (Definition 3.1).
	EngineNaive = eval.EngineNaive
	// EngineLIT is the monadic Datalog LIT engine (Proposition 3.7;
	// reference).
	EngineLIT = eval.EngineLIT
	// EngineBitmap evaluates the same Theorem 4.2 fragment as
	// EngineLinear as bulk bitset algebra over the arena columns plus
	// a fact-at-a-time worklist; the serving engine.
	EngineBitmap = eval.EngineBitmap
)

// EvalOnTree evaluates a monadic program on a tree with the chosen
// engine, returning the intensional relations. EngineBitmap is the
// serving path through CompileProgram (TMNF included); EngineLinear
// runs the linear engine on the program and visible set that path
// prepares; the set-oriented engines (seminaive, naive, lit) evaluate
// the program as given.
//
// It is a single-shot shim: each call pays the full preparation cost.
// Use CompileProgram + CompiledQuery.Eval to amortize it over many
// documents.
func EvalOnTree(p *Program, t *Tree, e Engine) (*Database, error) {
	if e != EngineLinear && e != EngineBitmap {
		return eval.EvalOnTree(p, t, e)
	}
	q, err := CompileProgram(p, WithoutCache())
	if err != nil {
		return nil, err
	}
	if e == EngineLinear {
		return q.evalLinear(t)
	}
	return q.Eval(context.Background(), t)
}

// evalLinear runs q's grounding plan on the Theorem 4.2 linear engine
// instead of the bitmap one: the same optimized program, the same
// visible predicates. It is the linear oracle behind EvalOnTree and
// the differential tests.
func (q *CompiledQuery) evalLinear(t *Tree) (*Database, error) {
	plan := q.plan
	if sp, ok := plan.(*spannerPlan); ok {
		plan = sp.inner
	}
	bp, ok := plan.(*bitmapPlan)
	if !ok {
		return nil, fmt.Errorf("mdlog: %v query has no grounding plan for the linear engine", q.lang)
	}
	pl, err := eval.NewPlan(bp.plan.Program())
	if err != nil {
		return nil, err
	}
	return pl.Visible(bp.project).Run(eval.NewNav(t))
}

// Query evaluates the program's distinguished query predicate on the
// serving engine and returns the selected node ids.
//
// Single-shot shim; see CompileProgram + CompiledQuery.Select for the
// amortized path.
func Query(p *Program, t *Tree) ([]int, error) {
	if p.Query == "" {
		return nil, fmt.Errorf("eval: program has no distinguished query predicate")
	}
	q, err := CompileProgram(p, WithoutCache())
	if err != nil {
		return nil, err
	}
	return q.Select(context.Background(), t)
}

// MSO (Sections 2 and 4.2).
type (
	// MSOFormula is a monadic second-order formula over τ_ur.
	MSOFormula = mso.Formula
	// MSOQuery is a compiled unary MSO query.
	MSOQuery = mso.UnaryQuery
	// MSOSentence is a compiled MSO sentence (regular tree language).
	MSOSentence = mso.Sentence
)

// ParseMSO reads an MSO formula, e.g.
// "exists y (child(x,y) & label_b(y))".
func ParseMSO(src string) (MSOFormula, error) { return mso.Parse(src) }

// CompileMSOQuery compiles φ(x) to a deterministic tree automaton for
// linear-time evaluation (Select) and datalog generation (ToDatalog —
// the constructive Theorem 4.4).
func CompileMSOQuery(f MSOFormula) (*MSOQuery, error) { return mso.CompileQuery(f) }

// CompileMSOSentence compiles a sentence (Proposition 2.1).
func CompileMSOSentence(f MSOFormula) (*MSOSentence, error) { return mso.CompileSentence(f) }

// Query automata (Section 4.3).
type (
	// QAr is a ranked query automaton (Definition 4.8).
	QAr = qa.QAr
	// SQAu is a strong unranked query automaton (Definition 4.12).
	SQAu = qa.SQAu
)

// TMNF (Section 5).

// ToTMNF rewrites a monadic datalog program over τ_ur ∪ {child,
// lastchild} into the Tree-Marking Normal Form over τ_ur
// (Theorem 5.2).
func ToTMNF(p *Program) (*Program, error) { return tmnf.Transform(p) }

// IsTMNF validates Definition 5.1.
func IsTMNF(p *Program) error { return tmnf.IsTMNF(p) }

// Caterpillar expressions (Section 2, Lemma 5.9, Corollary 5.12).
type CaterpillarExpr = caterpillar.Expr

// ParseCaterpillar reads e.g. "child+ | (child^-1)*.nextsibling+.child*".
func ParseCaterpillar(src string) (CaterpillarExpr, error) { return caterpillar.Parse(src) }

// CaterpillarSelect evaluates the unary query root.E.
//
// Single-shot shim over CompileCaterpillar: every call pays the full
// translate/normalize/plan cost — use CompileCaterpillar directly to
// amortize it. Expressions the datalog translation cannot prepare
// fall back to the direct evaluator, preserving the never-fails
// contract of the legacy signature.
func CaterpillarSelect(e CaterpillarExpr, t *Tree) []int {
	q, err := CompileCaterpillar(e, WithoutCache())
	if err != nil {
		return caterpillar.SelectFromRoot(e, t)
	}
	ids, err := q.Select(context.Background(), t)
	if err != nil {
		return caterpillar.SelectFromRoot(e, t)
	}
	return ids
}

// Elog (Section 6).
type (
	// ElogProgram is an Elog⁻ / Elog⁻Δ program.
	ElogProgram = elog.Program
	// ElogBuilder is the visual-specification session of Section 6.2.
	ElogBuilder = elog.Builder
)

// ParseElog reads Elog⁻ syntax, e.g.
//
//	item(x) :- root(x0), subelem("table._.tr", x0, x).
func ParseElog(src string) (*ElogProgram, error) { return elog.ParseProgram(src) }

// NewElogBuilder starts a visual wrapper-specification session on an
// example document.
func NewElogBuilder(doc *Tree) *ElogBuilder { return elog.NewBuilder(doc) }

// Core XPath (the Section 7 remark: Core XPath maps to monadic
// datalog and inherits its evaluation bounds).
type XPath = xpath.Path

// ParseXPath reads a Core XPath expression, e.g. "//table/tr[td/b]/td".
func ParseXPath(src string) (*XPath, error) { return xpath.Parse(src) }

// XPathSelect evaluates a Core XPath query (supports not(·) via the
// direct-evaluator plan).
//
// Single-shot shim over CompileXPath: every call pays the full
// translate/normalize/plan cost — use CompileXPath directly to
// amortize it. Queries the datalog translation cannot prepare fall
// back to the reference evaluator, preserving the never-fails
// contract of the legacy signature.
func XPathSelect(p *XPath, t *Tree) []int {
	q, err := CompileXPath(p, WithoutCache())
	if err != nil {
		return xpath.Select(p, t)
	}
	ids, err := q.Select(context.Background(), t)
	if err != nil {
		return xpath.Select(p, t)
	}
	return ids
}

// XPathToDatalog translates a positive Core XPath query into monadic
// datalog over τ_ur ∪ {child}; compose with ToTMNF for the linear-time
// engine.
func XPathToDatalog(p *XPath, queryPred string) (*Program, error) {
	return xpath.ToDatalog(p, queryPred)
}

// Wrapping (Section 6 intro).
type (
	// Wrapper runs a monadic datalog program as a wrapper.
	Wrapper = wrap.Wrapper
	// ElogWrapper runs an Elog program as a wrapper.
	ElogWrapper = wrap.ElogWrapper
	// Assignment maps patterns to selected nodes.
	Assignment = wrap.Assignment
)
