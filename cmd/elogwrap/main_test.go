package main

// CLI smoke tests: run() against a fixture wrapper and page, golden
// XML output (regenerate with `go test ./cmd/elogwrap -update`).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	mdlog "mdlog"
	"mdlog/internal/opt"
	"mdlog/internal/wrap"
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

func TestGoldenWrapSingleDoc(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-program", "testdata/wrapper.elog", "testdata/page.html"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "wrap_single.golden", out.Bytes())
}

func TestGoldenWrapMultiDocPatterns(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-program", "testdata/wrapper.elog", "-patterns", "price",
		"testdata/page.html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "wrap_multi_price.golden", out.Bytes())
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"testdata/page.html"}, &out, &errb); err == nil {
		t.Error("want an error without -program")
	}
	if err := run([]string{"-program", "testdata/wrapper.elog"}, &out, &errb); err == nil {
		t.Error("want an error without documents")
	}
	if err := run([]string{"-program", "testdata/missing.elog", "testdata/page.html"}, &out, &errb); err == nil {
		t.Error("want an error for a missing program file")
	}
	if err := run([]string{"-program", "testdata/wrapper.elog", "-O", "max", "testdata/page.html"}, &out, &errb); err == nil {
		t.Error("want an error for a bad -O level")
	}
}

// TestEnginesAgree wraps the fixture page at both optimization
// levels; the XML output must be byte-identical, and must equal the
// wrap of what the linear and reference engines derive from the
// Theorem 6.4 datalog translation, as given and optimized.
func TestEnginesAgree(t *testing.T) {
	var want []byte
	for _, o := range []string{"-O0", "-O1"} {
		var out, errb bytes.Buffer
		args := []string{"-program", "testdata/wrapper.elog", o, "testdata/page.html"}
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", o, err, errb.String())
		}
		if want == nil {
			want = out.Bytes()
		} else if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s output differs:\n%s\nvs\n%s", o, out.Bytes(), want)
		}
	}
	src, err := os.ReadFile("testdata/wrapper.elog")
	if err != nil {
		t.Fatal(err)
	}
	page, err := os.ReadFile("testdata/page.html")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mdlog.ParseElog(string(src))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := prog.ToDatalog()
	if err != nil {
		t.Fatal(err)
	}
	doc := mdlog.ParseHTML(string(page))
	// LIT is absent: the translation's subelem chains are neither
	// all-monadic nor guarded, so the LIT engine rejects them by design
	// (Proposition 3.7).
	optimized, _ := opt.Optimize(dp, opt.Options{Level: opt.O1, Roots: prog.Patterns()})
	for _, e := range []mdlog.Engine{mdlog.EngineLinear, mdlog.EngineSemiNaive, mdlog.EngineNaive} {
		for _, p := range []*mdlog.Program{dp, optimized} {
			db, err := mdlog.EvalOnTree(p, doc, e)
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			a := mdlog.Assignment{}
			for _, pat := range prog.Patterns() {
				if ids := db.UnarySet(pat); len(ids) > 0 {
					a[pat] = ids
				}
			}
			var out bytes.Buffer
			if err := wrap.WriteXML(&out, wrap.BuildOutput(doc, a, mdlog.WrapOptions{KeepText: true})); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("reference %v wraps\n%s\nthe CLI prints\n%s\nprogram:\n%s", e, out.Bytes(), want, p)
			}
		}
	}
}
