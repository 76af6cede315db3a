package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	mdlog "mdlog"
	"mdlog/internal/html"
)

// This file measures the live-document path: maintaining a wrapper's
// result through arena edits (Document + SelectIncremental,
// support-aware delete-rederive) against the pre-session workflow of reparsing
// the source and re-extracting from scratch on every revision.
// cmd/benchtables -incremental serializes the same measurements as
// BENCH_incremental.json so CI archives the trajectory across PRs.

// IncrementalPoint is one (wrapper, revision shape, document size,
// edit fraction) measurement. FullNs and IncNs are per revision: full
// = reparse + extract, inc = apply the edits through the mutation API
// + incremental extract.
type IncrementalPoint struct {
	// Wrapper names the maintained wrapper (see incrementalWrappers).
	Wrapper string `json:"wrapper"`
	// Revision is the edit shape: "subtree" inserts td(b) subtrees as
	// the first child of random nodes, "row" inserts nine-node product
	// rows at random positions inside the table; both then remove what
	// they inserted.
	Revision string `json:"revision"`
	// Nodes is the document size before edits, |dom|.
	Nodes int `json:"nodes"`
	// EditFrac is the revision size as a fraction of |dom|.
	EditFrac float64 `json:"edit_frac"`
	// Edits is the resulting number of insertions per revision: one
	// per EditFrac·|dom| nodes for subtrees, one per nine for rows.
	Edits int `json:"edits"`
	// FullNs: one revision through the full pipeline — reparse the
	// HTML source, evaluate the compiled wrapper on the fresh tree.
	FullNs int64 `json:"full_ns"`
	// IncNs: one revision through the live-document pipeline — Edits
	// mutations on the Document plus one incremental extract.
	IncNs int64 `json:"inc_ns"`
	// Speedup is FullNs / IncNs.
	Speedup float64 `json:"speedup"`
}

// incrementalWrappers are the maintained wrappers: the td-with-bold-
// first-child query the substrate benchmark uses, which needs no
// recursion, and the XPath //td[b], whose descendant axis runs along
// firstchild·nextsibling* chains, so an edit early in a sibling list
// touches the derivations of every later sibling.
var incrementalWrappers = []struct {
	name string
	lang mdlog.Language
	src  string
}{
	{"td/firstchild/b", mdlog.LangDatalog, `q(X) :- label_td(X), firstchild(X,Y), label_b(Y). ?- q.`},
	{"//td[b]", mdlog.LangXPath, `//td[b]`},
}

// incrementalRowTerm is an inserted product row (nine nodes).
const incrementalRowTerm = "tr(td(#text),td(b(#text)),td(em(#text)))"

// IncrementalData measures full-vs-incremental revisions at 10k/100k
// nodes (2k/10k under -quick) and 0.1% / 1% / 10% edit fractions, for
// every wrapper and revision shape.
func IncrementalData(cfg Config) []IncrementalPoint {
	sizes := []int{10000, 100000}
	if cfg.Quick {
		sizes = []int{2000, 10000}
	}
	fracs := []float64{0.001, 0.01, 0.1}
	ctx := context.Background()
	var out []IncrementalPoint
	for _, w := range incrementalWrappers {
		for _, target := range sizes {
			rng := rand.New(rand.NewSource(53))
			src := html.ProductListing(rng, target/9)
			n := mdlog.ParseHTML(src).Size()

			// Full baseline: every revision reparses the source and
			// re-extracts on the fresh tree (each parse yields a new tree
			// identity, so nothing is served from a memo).
			qFull, err := mdlog.Compile(w.src, w.lang)
			if err != nil {
				panic(err)
			}
			full := timeIt(func() {
				if _, err := qFull.Select(ctx, mdlog.ParseHTML(src)); err != nil {
					panic(err)
				}
			})

			for _, rev := range []string{"subtree", "row"} {
				for _, frac := range fracs {
					k := max(1, int(frac*float64(n)))
					if rev == "row" {
						k = max(1, k/9)
					}
					inc := incrementalRevision(ctx, w.src, w.lang, src, rev, k)
					out = append(out, IncrementalPoint{
						Wrapper:  w.name,
						Revision: rev,
						Nodes:    n,
						EditFrac: frac,
						Edits:    k,
						FullNs:   full.Nanoseconds(),
						IncNs:    inc.Nanoseconds(),
						Speedup:  float64(full) / float64(inc),
					})
				}
			}
		}
	}
	return out
}

// incrementalRevision times one revision of k insertions of the given
// shape on a live document over src, with one incremental extract.
func incrementalRevision(ctx context.Context, qsrc string, lang mdlog.Language, src, rev string, k int) time.Duration {
	q, err := mdlog.Compile(qsrc, lang)
	if err != nil {
		panic(err)
	}
	doc := mdlog.NewDocument(mdlog.ParseHTML(src))
	term := "td(b)"
	if rev == "row" {
		term = incrementalRowTerm
	}
	sub, err := mdlog.ParseTree(term)
	if err != nil {
		panic(err)
	}
	// Parents come from the original document, which the edit script
	// never removes, so they stay valid across runs.
	parents := doc.LiveNodes()
	table, rows := -1, 0
	for _, nd := range doc.Tree().Nodes {
		if nd.Label == "table" {
			table, rows = nd.ID, len(nd.Children)
		}
	}
	prng := rand.New(rand.NewSource(54))
	inserted := make([]int, 0, k)
	// One timed call is two balanced revisions — insert k subtrees and
	// extract, then remove them and extract — so the document returns
	// to its original extension and repeated runs measure the same
	// work.
	d := timeIt(func() {
		inserted = inserted[:0]
		for i := 0; i < k; i++ {
			parent, pos := parents[prng.Intn(len(parents))], 0
			if rev == "row" {
				parent, pos = table, 1+prng.Intn(rows+i)
			}
			id, err := doc.InsertSubtree(parent, pos, sub.Root)
			if err != nil {
				panic(err)
			}
			inserted = append(inserted, id)
		}
		if _, err := q.SelectIncremental(ctx, doc); err != nil {
			panic(err)
		}
		for _, id := range inserted {
			if err := doc.RemoveSubtree(id); err != nil {
				panic(err)
			}
		}
		if _, err := q.SelectIncremental(ctx, doc); err != nil {
			panic(err)
		}
	})
	return d / 2
}

// Incremental renders IncrementalData as an experiment table
// (EXT-INCREMENTAL).
func Incremental(cfg Config) Table {
	t := Table{
		ID:      "EXT-INCREMENTAL",
		Title:   "Incremental maintenance: edit-sized revisions vs full reparse + re-extract",
		Headers: []string{"wrapper", "revision", "nodes", "edit frac", "edits/rev", "full ms/rev", "inc ms/rev", "speedup"},
		Notes: "Product-listing documents; wrappers = td cells with a bold first child (datalog, " +
			"no recursion) and the XPath //td[b] (descendant axis along sibling chains). " +
			"full = reparse the HTML source and evaluate the compiled wrapper on the fresh tree; " +
			"inc = apply the revision's edits through the Document mutation API and run one " +
			"SelectIncremental (support-aware delete-rederive seeded from the arena delta). " +
			"Revisions insert td(b) subtrees as first children of random nodes (subtree) or " +
			"product rows at random table positions (row), then remove them, so both delta " +
			"directions are exercised. cmd/benchtables -incremental emits these rows as JSON.",
	}
	for _, pt := range IncrementalData(cfg) {
		t.Rows = append(t.Rows, []string{
			pt.Wrapper,
			pt.Revision,
			fmt.Sprint(pt.Nodes),
			fmt.Sprintf("%.1f%%", pt.EditFrac*100),
			fmt.Sprint(pt.Edits),
			fmt.Sprintf("%.3f", float64(pt.FullNs)/1e6),
			fmt.Sprintf("%.3f", float64(pt.IncNs)/1e6),
			fmt.Sprintf("%.2fx", pt.Speedup),
		})
	}
	return t
}
