package service

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	mdlog "mdlog"
)

// fuzzPage is the session document FuzzPatchOps edits: a table whose
// rows exercise the descendant axis, and a list.
const fuzzPage = `<html><body><table><tr><td>a</td><td><b>1</b></td></tr>` +
	`<tr><td><b>2</b></td><td><em>x</em></td></tr><tr><td>c</td></tr></table>` +
	`<ul><li>one</li><li><a>two</a></li></ul></body></html>`

// FuzzPatchOps decodes a PATCH body the way handlePatchDocument does
// and applies its ops to a small session document. Nothing may panic,
// and whatever ops applied, the incrementally maintained results of a
// small fused fleet must equal a from-scratch run on the document's
// canonical snapshot (ids mapped through the live preorder).
func FuzzPatchOps(f *testing.F) {
	for _, body := range []string{
		`{"ops":[{"op":"settext","node":9,"text":"$1.00"}]}`,
		`{"ops":[{"op":"insert","parent":3,"pos":1,"term":"tr(td(#text),td(b(#text)),td(em(#text)))"}]}`,
		`{"ops":[{"op":"remove","node":4}]}`,
		`{"ops":[{"op":"setattr","node":3,"key":"class","value":"grid"}]}`,
		`{"ops":[{"op":"remove","node":4},{"op":"insert","parent":3,"pos":0,"term":"tr(td(b))"},{"op":"remove","node":10}]}`,
		`{"ops":[{"op":"insert","parent":3,"pos":99,"term":"tr(td(b),td)"},{"op":"settext","node":2,"text":"t"}]}`,
		`{"ops":[{"op":"remove","node":999}]}`,
		`{"ops":[{"op":"remove","node":-1}]}`,
		`{"ops":[{"op":"remove","node":0}]}`,
		`{"ops":[{"op":"insert","parent":3,"pos":-2,"term":"tr((td"}]}`,
		`{"ops":[{"op":"insert","parent":4000,"pos":0,"term":"li"}]}`,
		`{"ops":[{"op":"frob","node":1}]}`,
		`{"ops":[{"op":"remove","node":4},{"op":"settext","node":5,"text":"dead"}]}`,
		`{"ops":[],"extra":1}`,
		`not json`,
	} {
		f.Add(body)
	}
	var qs []*mdlog.CompiledQuery
	for _, src := range []string{"//td[b]", "//tr[td]", "//td/em", "//ul/li"} {
		q, err := mdlog.Compile(src, mdlog.LangXPath)
		if err != nil {
			f.Fatal(err)
		}
		qs = append(qs, q)
	}
	set, err := mdlog.NewQuerySet(qs...)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body string) {
		doc := mdlog.NewDocument(mdlog.ParseHTML(fuzzPage))
		set.RunIncremental(ctx, doc) // maintain from the first generation on
		var req patchRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		for _, op := range req.Ops {
			if _, err := op.apply(doc); err != nil {
				break
			}
		}
		got := set.RunIncremental(ctx, doc)
		want := set.Run(ctx, doc.Snapshot())
		live := doc.LiveNodes()
		for i := range got {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("member %d: incremental error %v, full error %v", i, got[i].Err, want[i].Err)
			}
			mapped := make([]int, len(want[i].IDs))
			for j, v := range want[i].IDs {
				mapped[j] = live[v]
			}
			slices.Sort(mapped)
			if fmt.Sprint(got[i].IDs) != fmt.Sprint(mapped) {
				t.Fatalf("member %d after %s: incremental %v, from scratch %v", i, body, got[i].IDs, mapped)
			}
		}
	})
}
