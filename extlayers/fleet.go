package main

// The wrapper fleet and its reference semantics. fleet-mixed and
// live-edit serve the same 32 wrappers: eight base extraction tasks
// over product listings and news indexes, written in six languages
// (datalog, XPath, Elog⁻, caterpillar, MSO, spanner), plus
// near-duplicate variants (renamed predicates, a redundant conjunct, a
// repeated atom, verbatim copies) so the optimizer's dedup, CSE and
// subsumption passes all have work. Every wrapper names the
// independent reference evaluator that defines its expected answer.

import (
	"fmt"
	"sort"

	mdlog "mdlog"
	"mdlog/internal/caterpillar"
	"mdlog/internal/datalog"
	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/mso"
	"mdlog/internal/service"
	"mdlog/internal/span"
	"mdlog/internal/tree"
	"mdlog/internal/xpath"
)

// wrapperDef is one registered wrapper. equiv is the Core XPath
// expression an MSO wrapper is checked against on full-size pages:
// mso.NaiveSelect enumerates node sets as 64-bit masks and so only
// decides trees of at most 64 nodes, where the oracle checks the
// formula and equiv agree (see checkMSOEquivalents).
type wrapperDef struct {
	name  string
	lang  mdlog.Language
	src   string
	equiv string
}

const (
	priceSpanner = `
cell(X) :- label_b(Y), child(Y, X), label_#text(X).
?- cell.
price(X, A) :- cell(X), text(X, S), match(S, /\$(?<amt>[0-9]+\.[0-9][0-9])/, A).
`
	summarySpanner = `
sm(X) :- label_span(Y), child(Y, X), label_#text(X).
?- sm.
num(X, N) :- sm(X), text(X, S), match(S, /summary (?<n>[0-9]+)/, N).
`
)

var fleet = []wrapperDef{
	// Price cells: a td with a bold child, in every language.
	{name: "cell_dl", lang: mdlog.LangDatalog, src: `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`},
	{name: "cell_dl_renamed", lang: mdlog.LangDatalog, src: `pc(X) :- label_td(X), child(X,Z), label_b(Z). ?- pc.`},
	{name: "cell_dl_implied", lang: mdlog.LangDatalog, src: `q(X) :- label_td(X), child(X,Y), label_b(Y), child(X,W). ?- q.`},
	{name: "cell_xp", lang: mdlog.LangXPath, src: `//td[b]`},
	{name: "cell_xp_copy", lang: mdlog.LangXPath, src: `//td[b]`},
	{name: "cell_cat", lang: mdlog.LangCaterpillar, src: `child*.label_td.child.label_b.(child^-1).label_td`},
	{name: "cell_cat_copy", lang: mdlog.LangCaterpillar, src: `child*.label_td.child.label_b.(child^-1).label_td`},
	{name: "cell_elog", lang: mdlog.LangElog, src: `q(x) :- root(x0), subelem("html.body.table.tr.td", x0, x), contains("b", x, y).`},
	{name: "cell_mso", lang: mdlog.LangMSO, src: `label_td(x) & exists y (child(x,y) & label_b(y))`, equiv: `//td[b]`},
	{name: "cell_mso_copy", lang: mdlog.LangMSO, src: `label_td(x) & exists y (child(x,y) & label_b(y))`, equiv: `//td[b]`},
	// Product rows.
	{name: "row_xp", lang: mdlog.LangXPath, src: `//tr[td]`},
	{name: "row_dl", lang: mdlog.LangDatalog, src: `r(X) :- label_tr(X), child(X,Y), label_td(Y). ?- r.`},
	{name: "row_dl_renamed", lang: mdlog.LangDatalog, src: `row(X) :- label_tr(X), child(X,C), label_td(C). ?- row.`},
	{name: "row_mso", lang: mdlog.LangMSO, src: `label_tr(x) & exists y (child(x,y) & label_td(y))`, equiv: `//tr[td]`},
	// Stock labels.
	{name: "stock_xp", lang: mdlog.LangXPath, src: `//td/em`},
	{name: "stock_xp_copy", lang: mdlog.LangXPath, src: `//td/em`},
	{name: "stock_cat", lang: mdlog.LangCaterpillar, src: `child*.label_td.child.label_em`},
	{name: "stock_elog", lang: mdlog.LangElog, src: `s(x) :- root(x0), subelem("html.body.table.tr.td.em", x0, x).`},
	// Row cells of crawl-large's wrapper, here as one fleet member.
	{name: "rowcell_xp", lang: mdlog.LangXPath, src: crawlWrapperSrc},
	// Headlines.
	{name: "head_xp", lang: mdlog.LangXPath, src: `//li/a`},
	{name: "head_xp_copy", lang: mdlog.LangXPath, src: `//li/a`},
	{name: "head_dl", lang: mdlog.LangDatalog, src: `h(X) :- label_li(Y), child(Y,X), label_a(X). ?- h.`},
	{name: "head_dl_dupatom", lang: mdlog.LangDatalog, src: `h(X) :- label_li(Y), child(Y,X), label_a(X), label_li(Y). ?- h.`},
	{name: "head_cat", lang: mdlog.LangCaterpillar, src: `child*.label_li.child.label_a`},
	{name: "head_elog", lang: mdlog.LangElog, src: `h(x) :- root(x0), subelem("html.body.div.div.ul.li.a", x0, x).`},
	{name: "head_elog_copy", lang: mdlog.LangElog, src: `h(x) :- root(x0), subelem("html.body.div.div.ul.li.a", x0, x).`},
	// Section titles.
	{name: "title_xp", lang: mdlog.LangXPath, src: `//div[ul]/h2`},
	{name: "title_xp_copy", lang: mdlog.LangXPath, src: `//div[ul]/h2`},
	// Spanners: listing prices and news summary numbers.
	{name: "price_span", lang: mdlog.LangSpanner, src: priceSpanner},
	{name: "price_span_copy", lang: mdlog.LangSpanner, src: priceSpanner},
	{name: "summary_span", lang: mdlog.LangSpanner, src: summarySpanner},
	{name: "summary_span_copy", lang: mdlog.LangSpanner, src: summarySpanner},
}

// wrapperConfig is the daemon config registering defs at boot.
func wrapperConfig(defs []wrapperDef) *service.Config {
	cfg := &service.Config{}
	for _, d := range defs {
		cfg.Wrappers = append(cfg.Wrappers, service.ConfigWrapper{
			Name:        d.name,
			WrapperSpec: service.WrapperSpec{Lang: d.lang, Source: d.src},
		})
	}
	return cfg
}

// answer is one wrapper's expected (or observed) result on one
// document: Select node ids, plus span relations for spanners.
type answer struct {
	ids   []int
	spans span.Result
}

// reference evaluates one wrapper's source with an evaluator outside
// the compiled pipeline it checks (only the HTML parser and the τ_ur
// database are shared): the direct Core XPath evaluator, semi-naive
// datalog, the direct caterpillar and Elog⁻ evaluators, and
// NaiveEnumerate over node text for spanners (whose node part is
// semi-naive datalog).
type reference func(t *tree.Tree) (answer, error)

func referenceFor(d wrapperDef) (reference, error) {
	switch d.lang {
	case mdlog.LangXPath:
		return xpathRef(d.src)
	case mdlog.LangMSO:
		return xpathRef(d.equiv)
	case mdlog.LangDatalog:
		p, err := datalog.ParseProgram(d.src)
		if err != nil {
			return nil, err
		}
		return func(t *tree.Tree) (answer, error) {
			db, err := eval.EvalOnTree(p, t, eval.EngineSemiNaive)
			if err != nil {
				return answer{}, err
			}
			return answer{ids: db.UnarySet(p.Query)}, nil
		}, nil
	case mdlog.LangCaterpillar:
		e, err := caterpillar.Parse(d.src)
		if err != nil {
			return nil, err
		}
		return func(t *tree.Tree) (answer, error) {
			return answer{ids: sortedIDs(caterpillar.SelectFromRoot(e, t))}, nil
		}, nil
	case mdlog.LangElog:
		p, err := elog.ParseProgram(d.src)
		if err != nil {
			return nil, err
		}
		pats := p.Patterns()
		if len(pats) != 1 {
			return nil, fmt.Errorf("%s: want one extraction pattern, have %v", d.name, pats)
		}
		return func(t *tree.Tree) (answer, error) {
			ext, err := p.EvalDirect(t)
			if err != nil {
				return answer{}, err
			}
			return answer{ids: sortedIDs(ext[pats[0]])}, nil
		}, nil
	case mdlog.LangSpanner:
		return spannerRef(d.src)
	}
	return nil, fmt.Errorf("%s: no reference evaluator for %v", d.name, d.lang)
}

func xpathRef(src string) (reference, error) {
	p, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	return func(t *tree.Tree) (answer, error) {
		return answer{ids: sortedIDs(xpath.Select(p, t))}, nil
	}, nil
}

// spannerRef supports the span-rule shape the fleet uses: one node
// atom, text(X, S), and one match over S whose captures are the head.
func spannerRef(src string) (reference, error) {
	p, err := span.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	np, cands, err := p.NodeProgram()
	if err != nil {
		return nil, err
	}
	for _, r := range p.Rules {
		if len(r.Steps) != 2 || r.Steps[0].Kind != span.StepText || r.Steps[1].Kind != span.StepMatch ||
			r.Steps[1].Src != r.Steps[0].Out || fmt.Sprint(r.Steps[1].Outs) != fmt.Sprint(r.HeadVars) {
			return nil, fmt.Errorf("spanner reference: rule %s is not text+match", r.Name)
		}
	}
	return func(t *tree.Tree) (answer, error) {
		db, err := eval.EvalOnTree(np, t, eval.EngineSemiNaive)
		if err != nil {
			return answer{}, err
		}
		a := answer{ids: db.UnarySet(np.Query)}
		for i, r := range p.Rules {
			rel := span.Relation{Name: r.Name, Vars: r.HeadVars}
			for _, v := range db.UnarySet(cands[i]) {
				text := t.Nodes[v].Text
				for _, m := range r.Steps[1].Re.NaiveEnumerate(text) {
					row := span.Binding{Node: v}
					for k := 0; k < len(m); k += 2 {
						row.Spans = append(row.Spans, span.Span{Start: int(m[k]), End: int(m[k+1]), Text: text[m[k]:m[k+1]]})
					}
					rel.Rows = append(rel.Rows, row)
				}
			}
			a.spans = append(a.spans, rel)
		}
		return a, nil
	}, nil
}

func sortedIDs(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// checkMSOEquivalents decides every MSO wrapper with mso.NaiveSelect on
// small seeded pages (≤ 64 nodes) and requires its equiv XPath to
// select the same nodes there, so the full-size check against equiv is
// a check against the formula's own semantics.
func checkMSOEquivalents(defs []wrapperDef, small []*tree.Tree) error {
	for _, d := range defs {
		if d.lang != mdlog.LangMSO {
			continue
		}
		f, err := mso.Parse(d.src)
		if err != nil {
			return err
		}
		eq, err := xpathRef(d.equiv)
		if err != nil {
			return err
		}
		fv := mso.FreeVars(f)
		if len(fv) != 1 {
			return fmt.Errorf("%s: want one free variable, have %v", d.name, fv)
		}
		for _, t := range small {
			want, err := mso.NaiveSelect(f, fv[0], t)
			if err != nil {
				return fmt.Errorf("%s: %w", d.name, err)
			}
			got, _ := eq(t)
			if fmt.Sprint(sortedIDs(want)) != fmt.Sprint(got.ids) {
				return fmt.Errorf("%s: naive MSO selects %v, equivalent %q selects %v", d.name, want, d.equiv, got.ids)
			}
		}
	}
	return nil
}
