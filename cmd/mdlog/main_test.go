package main

// CLI smoke tests: run() against fixture documents, golden output
// (regenerate with `go test ./cmd/mdlog -update`).

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	mdlog "mdlog"
	"mdlog/internal/opt"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGoldenDatalogOnHTML(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-program", "testdata/wrapper.dl", "-html", "testdata/page.html"}, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "datalog_html.golden", out.Bytes())
}

func TestGoldenXPathMultiDoc(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-lang", "xpath", "-query", "//td[b]",
		"-html", "testdata/page.html", "-html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "xpath_multidoc.golden", out.Bytes())
}

func TestGoldenTermTree(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-query", "p(X) :- label_b(X). ?- p.", "-tree", "a(b,c(b))", "-print-tree"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "term_tree.golden", out.Bytes())
}

func TestGoldenSpanner(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-lang", "spanner", "-program", "testdata/prices.span", "-html", "testdata/page.html"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "spanner_html.golden", out.Bytes())
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-tree", "a"}, &out, &errb); err == nil {
		t.Error("want an error without -program/-query")
	}
	if err := run([]string{"-query", "p(X) :- q(X).", "-lang", "nope", "-tree", "a"}, &out, &errb); err == nil {
		t.Error("want an error for an unknown language")
	}
	if err := run([]string{"-query", "p(X) :- label_a(X). ?- p."}, &out, &errb); err == nil {
		t.Error("want an error without documents")
	}
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Errorf("-h should print usage and succeed, got %v", err)
	}
	// Unknown and reference engines alike are refused, naming exactly
	// the serving engines.
	for _, engine := range []string{"bogus", "seminaive"} {
		err := run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-tree", "a", "-engine", engine}, &out, &errb)
		if err == nil || !strings.HasSuffix(err.Error(), "(valid engines: linear, bitmap)") {
			t.Errorf("-engine %s must be refused naming the valid options, got %v", engine, err)
		}
	}
	if err := run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-tree", "a", "-O", "7"}, &out, &errb); err == nil {
		t.Error("want an error for a bad -O level")
	}
}

// TestEngineOptMatrix runs one query through both serving engines and
// both optimization levels; stdout must be identical across the
// matrix, and must print what the reference engines select on the
// program as given and optimized.
func TestEngineOptMatrix(t *testing.T) {
	var want string
	for _, engine := range []string{"linear", "bitmap"} {
		for _, o := range []string{"-O0", "-O1"} {
			var out, errb bytes.Buffer
			args := []string{"-program", "testdata/wrapper.dl", "-html", "testdata/page.html", "-engine", engine, o}
			if err := run(args, &out, &errb); err != nil {
				t.Fatalf("%s %s: %v (stderr: %s)", engine, o, err, errb.String())
			}
			if want == "" {
				want = out.String()
			} else if out.String() != want {
				t.Errorf("%s %s prints %q, want %q", engine, o, out.String(), want)
			}
		}
	}
	src, err := os.ReadFile("testdata/wrapper.dl")
	if err != nil {
		t.Fatal(err)
	}
	page, err := os.ReadFile("testdata/page.html")
	if err != nil {
		t.Fatal(err)
	}
	p, err := mdlog.ParseProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	doc := mdlog.ParseHTML(string(page))
	optimized, _ := opt.Optimize(p, opt.Options{Level: opt.O1})
	for _, e := range []mdlog.Engine{mdlog.EngineSemiNaive, mdlog.EngineNaive, mdlog.EngineLIT} {
		for _, prog := range []*mdlog.Program{p, optimized} {
			db, err := mdlog.EvalOnTree(prog, doc, e)
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			if got := fmt.Sprintf("%s: %v\n", p.Query, db.UnarySet(p.Query)); got != want {
				t.Errorf("reference %v selects %q, the CLI prints %q\nprogram:\n%s", e, got, want, prog)
			}
		}
	}
}

func TestGoldenMultiProgramFused(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-lang", "xpath", "-query", "//td[b]", "-query", "//td",
		"-html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "multi_program.golden", out.Bytes())
}

// TestGoldenExplainSubsumed: -explain prints the compile plan; the
// second program is a dom-padded, fragment-duplicated variant of the
// first, so the containment checker proves it equivalent and the plan
// shows it answered purely by projection.
func TestGoldenExplainSubsumed(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-explain",
		"-query", "q(X) :- firstchild(X,Y), label_td(Y). ?- q.",
		"-query", "q(X) :- dom(X), firstchild(X,Y), label_td(Y), firstchild(X,Z), label_td(Z). ?- q.",
		"-html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "explain_subsumed.golden", out.Bytes())
}

func TestExplainSingleProgram(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-explain", "-program", "testdata/wrapper.dl", "-html", "testdata/page.html"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	// No -engine: the plan runs on the default serving engine.
	if !strings.HasPrefix(out.String(), "plan: wrapper on engine bitmap") {
		t.Errorf("single-program -explain must lead with the plan line naming the bitmap engine, got %q", out.String())
	}
}

// TestWatchMode: -watch re-extracts when the watched file changes and
// exits after -watch-count passes, so the whole loop is observable.
func TestWatchMode(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.term")
	if err := os.WriteFile(doc, []byte("a(b,c)"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-query", "p(X) :- label_b(X). ?- p.",
			"-treefile", doc,
			"-watch", "-watch-interval", "5ms", "-watch-count", "2",
		}, &out, &errb)
	}()
	// Give pass 1 a head start, then grow the file; the poll loop
	// compares size as well as mtime, so this registers regardless of
	// filesystem timestamp granularity.
	time.Sleep(50 * time.Millisecond)
	if err := os.WriteFile(doc, []byte("a(b,c(b,b))"), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%v (stderr: %s)", err, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch loop did not exit after -watch-count passes")
	}
	want := "[pass 1] p: [1]\n[pass 2] p: [1 3 4]\n"
	if out.String() != want {
		t.Errorf("watch output = %q, want %q", out.String(), want)
	}
}

func TestWatchModeErrors(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-tree", "a", "-watch"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "file-backed") {
		t.Errorf("-watch with -tree literal must error, got %v", err)
	}
	err = run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-watch"}, &out, &errb)
	if err == nil {
		t.Error("-watch without documents must error")
	}
}

func TestMultiProgramMixedFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-query", "//td", "-program", "testdata/wrapper.dl", "-tree", "a"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "alternatives") {
		t.Errorf("mixing -query and -program must error, got %v", err)
	}
}
