package service

// Persistence tests: the restart round-trip e2e (the registry a daemon
// serves after a reboot is byte-for-byte the one it served before),
// the corrupt-snapshot boot refusal, and the SIGHUP reload path.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	mdlog "mdlog"
)

// rawBody issues one request and returns status + exact body bytes.
func rawBody(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestStoreRestartRoundTrip is the e2e: register wrappers over HTTP
// against a data dir, tear the server down, boot a fresh one on the
// same dir, and require an identical /wrappers listing and
// byte-identical /extract responses — plus the version counter
// surviving the restart.
func TestStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()

	_, ts1 := newTestServer(t, &Config{DataDir: dir})
	spec, _ := json.Marshal(map[string]any{"lang": "elog", "source": elogSrc})
	if status, body := doJSON(t, http.MethodPut, ts1.URL+"/wrappers/items", string(spec)); status != http.StatusCreated {
		t.Fatalf("PUT: status %d, body %v", status, body)
	}
	// Replace once so the version counter moves past 1.
	if status, body := doJSON(t, http.MethodPut, ts1.URL+"/wrappers/items", string(spec)); status != http.StatusOK {
		t.Fatalf("re-PUT: status %d, body %v", status, body)
	}
	spec2, _ := json.Marshal(map[string]any{
		"lang":   "elog",
		"source": `cell(x) :- root(x0), subelem("html.body.table.tr.td", x0, x).`,
	})
	if status, body := doJSON(t, http.MethodPut, ts1.URL+"/wrappers/cells", string(spec2)); status != http.StatusCreated {
		t.Fatalf("PUT cells: status %d, body %v", status, body)
	}

	wantList, err := json.Marshal(listWrappers(t, ts1.URL))
	if err != nil {
		t.Fatal(err)
	}
	// ?output=assign responses carry no run timings, so equality is
	// byte-for-byte; the default output embeds eval_ns.
	_, wantExtract := rawBody(t, http.MethodPost, ts1.URL+"/extract/items?output=assign", page)
	_, wantAll := rawBody(t, http.MethodPost, ts1.URL+"/extractall", page)
	ts1.Close() // "kill" the daemon; the data dir survives

	_, ts2 := newTestServer(t, &Config{DataDir: dir})
	gotList, err := json.Marshal(listWrappers(t, ts2.URL))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotList) != string(wantList) {
		t.Errorf("restarted /wrappers:\n got %s\nwant %s", gotList, wantList)
	}
	if _, got := rawBody(t, http.MethodPost, ts2.URL+"/extract/items?output=assign", page); string(got) != string(wantExtract) {
		t.Errorf("restarted /extract:\n got %s\nwant %s", got, wantExtract)
	}
	if _, got := rawBody(t, http.MethodPost, ts2.URL+"/extractall", page); string(got) != string(wantAll) {
		t.Errorf("restarted /extractall:\n got %s\nwant %s", got, wantAll)
	}
	status, info := doJSON(t, http.MethodGet, ts2.URL+"/wrappers/items", "")
	if status != http.StatusOK {
		t.Fatalf("GET items: status %d", status)
	}
	if v := info["version"].(float64); v != 2 {
		t.Errorf("items version after restart = %v, want 2 (survived replacement count)", v)
	}
}

// listWrappers fetches /wrappers stripped of nothing — the comparison
// is on the full JSON value.
func listWrappers(t *testing.T, base string) map[string]any {
	t.Helper()
	status, v := doJSON(t, http.MethodGet, base+"/wrappers", "")
	if status != http.StatusOK {
		t.Fatalf("GET /wrappers: status %d", status)
	}
	return v
}

// TestStoreCorruptSnapshotFailsBoot: a daemon must refuse to boot —
// naming the file — rather than silently serve an empty registry.
func TestStoreCorruptSnapshotFailsBoot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, storeFileName)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(&Config{DataDir: dir})
	if err == nil {
		t.Fatal("New booted on a corrupt store snapshot")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("boot error %q does not name the snapshot file %q", err, path)
	}

	// Same refusal for a future format version.
	future, _ := json.Marshal(map[string]any{"format_version": storeFormatVersion + 1, "wrappers": []any{}})
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(&Config{DataDir: dir}); err == nil {
		t.Fatal("New booted on a future-format store snapshot")
	}
}

// TestStoreLoadsEngineSpecs: testdata/wrappers_with_engine.json is a
// snapshot written while wrapper specs still carried an "engine" field
// ("linear" on one wrapper, "bitmap" on the other). It must still boot
// and serve both wrappers, and the next Save must drop the key.
func TestStoreLoadsEngineSpecs(t *testing.T) {
	fixture, err := os.ReadFile("testdata/wrappers_with_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, storeFileName)
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, &Config{DataDir: dir})
	for name, want := range map[string]int{"items": 2, "prices": 1} {
		status, body := doJSON(t, http.MethodPost, ts.URL+"/extract/"+name, page)
		if status != http.StatusOK {
			t.Fatalf("extract/%s: status %d body %v", name, status, body)
		}
		if got := len(intSlice(t, body["nodes"])); got != want {
			t.Errorf("extract/%s selects %d nodes, want %d", name, got, want)
		}
	}
	spec := `{"lang":"xpath","source":"//td"}`
	if status, body := doJSON(t, http.MethodPut, ts.URL+"/wrappers/cells", spec); status != http.StatusCreated {
		t.Fatalf("PUT cells: status %d body %v", status, body)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(snap), `"engine"`) {
		t.Errorf("Save kept the engine key:\n%s", snap)
	}
	for _, name := range []string{`"items"`, `"prices"`, `"cells"`} {
		if !strings.Contains(string(snap), name) {
			t.Errorf("Save lost wrapper %s:\n%s", name, snap)
		}
	}
}

// TestStoreBootSeedsAndPrecedence: config wrappers seed a fresh store,
// and on the next boot the stored entry wins over a changed config
// seed (the store is runtime state, the config only fills gaps).
func TestStoreBootSeedsAndPrecedence(t *testing.T) {
	dir := t.TempDir()
	cfg := bootConfig()
	cfg.DataDir = dir
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, storeFileName)); err != nil {
		t.Fatalf("boot did not write the snapshot: %v", err)
	}
	w1, _ := s1.Registry().Get("items")

	// Reboot with a different config source for the same name: the
	// stored spec must win.
	cfg2 := &Config{DataDir: dir, Wrappers: []ConfigWrapper{{
		Name:        "items",
		WrapperSpec: WrapperSpec{Lang: mdlog.LangElog, Source: `item(x) :- root(x).`},
	}, {
		Name:        "extra",
		WrapperSpec: WrapperSpec{Lang: mdlog.LangElog, Source: `item(x) :- root(x).`},
	}}}
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	w2, ok := s2.Registry().Get("items")
	if !ok || w2.Spec.Source != w1.Spec.Source {
		t.Errorf("stored spec lost to config seed: got %q, want %q", w2.Spec.Source, w1.Spec.Source)
	}
	if _, ok := s2.Registry().Get("extra"); !ok {
		t.Error("config seed for a name absent from the store was dropped")
	}
}

// TestReload: rewriting the snapshot out-of-band and calling Reload
// (the SIGHUP path) swaps the registry without a restart; a snapshot
// with a broken wrapper leaves the serving registry untouched.
func TestReload(t *testing.T) {
	dir := t.TempDir()
	cfg := bootConfig()
	cfg.DataDir = dir
	s, ts := newTestServer(t, cfg)

	// Rewrite the snapshot as another process would: same shape, new
	// wrapper name, bumped version.
	snap := storeFile{FormatVersion: storeFormatVersion, Wrappers: []StoredWrapper{{
		Name:    "rows",
		Version: 7,
		Spec:    WrapperSpec{Lang: mdlog.LangElog, Source: elogSrc},
	}}}
	b, _ := json.Marshal(snap)
	if err := os.WriteFile(filepath.Join(dir, storeFileName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/extract/items", page); status != http.StatusNotFound {
		t.Errorf("old wrapper survived reload: status %d, want 404", status)
	}
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extract/rows", page)
	if status != http.StatusOK {
		t.Errorf("reloaded wrapper: status %d, body %v", status, body)
	}
	status, info := doJSON(t, http.MethodGet, ts.URL+"/wrappers/rows", "")
	if status != http.StatusOK || info["version"].(float64) != 7 {
		t.Errorf("reloaded version: status %d, info %v, want version 7", status, info)
	}

	// A snapshot that fails to compile must not touch the registry.
	bad, _ := json.Marshal(storeFile{FormatVersion: storeFormatVersion, Wrappers: []StoredWrapper{{
		Name: "broken",
		Spec: WrapperSpec{Lang: mdlog.LangElog, Source: "item(x :- nope"},
	}}})
	if err := os.WriteFile(filepath.Join(dir, storeFileName), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("Reload accepted a snapshot with a broken wrapper")
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/extract/rows", page); status != http.StatusOK {
		t.Errorf("failed reload disturbed the serving registry: status %d", status)
	}

	// Reload without a store is an error, not a crash.
	s2, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Reload(); err == nil {
		t.Error("Reload without a data dir should fail")
	}
}

// TestStoreAtomicSave: the snapshot on disk is always complete JSON —
// after many rapid mutations the final file parses and matches the
// registry.
func TestStoreAtomicSave(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, &Config{DataDir: dir})
	for i := 0; i < 20; i++ {
		spec, _ := json.Marshal(map[string]any{"lang": "elog", "source": elogSrc})
		name := fmt.Sprintf("w%d", i%5)
		if status, body := doJSON(t, http.MethodPut, ts.URL+"/wrappers/"+name, string(spec)); status != http.StatusCreated && status != http.StatusOK {
			t.Fatalf("PUT %s: status %d, body %v", name, status, body)
		}
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := st.Load()
	if err != nil {
		t.Fatalf("snapshot unreadable after rapid mutations: %v", err)
	}
	if len(ws) != 5 {
		t.Errorf("snapshot has %d wrappers, want 5", len(ws))
	}
	for _, sw := range ws {
		if sw.Name == "w0" && sw.Version != 4 {
			t.Errorf("w0 version = %d, want 4 (installed 4 times)", sw.Version)
		}
	}
	// No temp-file litter from the replace-on-write dance.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != storeFileName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("data dir contents %v, want just %s", names, storeFileName)
	}
}
