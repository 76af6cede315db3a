package service

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	mdlog "mdlog"
	"mdlog/internal/tree"
)

const listPage = `<html><body><ul><li>one</li><li>two</li></ul></body></html>`

// sessionServer boots a server with li/ul wrappers (two fusable
// members) and an open session over listPage.
func sessionServer(t *testing.T, cfg *Config) (*Server, string) {
	t.Helper()
	if cfg == nil {
		cfg = &Config{}
	}
	cfg.Wrappers = append(cfg.Wrappers,
		ConfigWrapper{Name: "items", WrapperSpec: WrapperSpec{Lang: mdlog.LangDatalog, Source: `q(X) :- label_li(X). ?- q.`}},
		ConfigWrapper{Name: "lists", WrapperSpec: WrapperSpec{Lang: mdlog.LangDatalog, Source: `q(X) :- label_ul(X). ?- q.`}},
	)
	s, ts := newTestServer(t, cfg)
	if code, _ := doJSON(t, "PUT", ts.URL+"/documents/page", listPage); code != http.StatusCreated {
		t.Fatalf("PUT session: %d", code)
	}
	return s, ts.URL
}

// extractAllSession posts /documents/{id}/extractall and returns the
// per-wrapper node ids.
func extractAllSession(t *testing.T, url, id string) map[string][]int {
	t.Helper()
	code, v := doJSON(t, "POST", url+"/documents/"+id+"/extractall", "")
	if code != http.StatusOK {
		t.Fatalf("extractall: %d (%v)", code, v)
	}
	out := map[string][]int{}
	for _, item := range v["results"].([]any) {
		m := item.(map[string]any)
		if e, ok := m["error"]; ok {
			t.Fatalf("wrapper %v failed: %v", m["wrapper"], e)
		}
		out[m["wrapper"].(string)] = intSlice(t, m["nodes"])
	}
	return out
}

// TestSessionLifecycle is the session acceptance path: upload, extract,
// edit, re-extract (incrementally maintained), inspect, close.
func TestSessionLifecycle(t *testing.T) {
	_, url := sessionServer(t, nil)

	res := extractAllSession(t, url, "page")
	if len(res["items"]) != 2 || len(res["lists"]) != 1 {
		t.Fatalf("initial extract: %v", res)
	}
	ul := res["lists"][0]

	// Insert a third list item; only the delta should be re-derived.
	code, v := doJSON(t, "PATCH", url+"/documents/page",
		fmt.Sprintf(`{"ops":[{"op":"insert","parent":%d,"pos":9,"term":"li(b)"}]}`, ul))
	if code != http.StatusOK {
		t.Fatalf("PATCH: %d (%v)", code, v)
	}
	inserted := intSlice(t, v["inserted"])
	if len(inserted) != 1 {
		t.Fatalf("inserted = %v", inserted)
	}
	res = extractAllSession(t, url, "page")
	if len(res["items"]) != 3 {
		t.Fatalf("after insert: %v", res)
	}
	found := false
	for _, id := range res["items"] {
		if id == inserted[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted node %d missing from %v", inserted[0], res["items"])
	}

	// Remove it again; results return to the original extension.
	code, v = doJSON(t, "PATCH", url+"/documents/page",
		fmt.Sprintf(`{"ops":[{"op":"remove","node":%d},{"op":"settext","node":%d,"text":"ONE"}]}`, inserted[0], res["items"][0]))
	if code != http.StatusOK {
		t.Fatalf("PATCH remove: %d (%v)", code, v)
	}
	if res = extractAllSession(t, url, "page"); len(res["items"]) != 2 {
		t.Fatalf("after removal: %v", res)
	}

	// Session introspection reports the maintenance counters.
	code, v = doJSON(t, "GET", url+"/documents/page", "")
	if code != http.StatusOK {
		t.Fatalf("GET session: %d", code)
	}
	if v["edits"].(float64) != 3 {
		t.Fatalf("edits = %v, want 3", v["edits"])
	}
	inc := v["incremental"].(map[string]any)
	if inc["applies"].(float64) == 0 {
		t.Fatalf("no incremental applies recorded: %v", v)
	}

	// A failing op reports how much of the script applied.
	code, v = doJSON(t, "PATCH", url+"/documents/page", `{"ops":[{"op":"remove","node":0}]}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("removing the root: %d (%v)", code, v)
	}

	// Close; the session is gone.
	if code, _ = doJSON(t, "DELETE", url+"/documents/page", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE: %d", code)
	}
	if code, _ = doJSON(t, "GET", url+"/documents/page", ""); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d", code)
	}
	if code, _ = doJSON(t, "POST", url+"/documents/page/extractall", ""); code != http.StatusNotFound {
		t.Fatalf("extractall after DELETE: %d", code)
	}
}

// TestSessionCapacity: at MaxSessions with no idle session to reclaim,
// a new id is shed with 503 + Retry-After; replacing an existing id
// and reopening after DELETE both still work.
func TestSessionCapacity(t *testing.T) {
	_, url := sessionServer(t, &Config{MaxSessions: 2})
	if code, _ := doJSON(t, "PUT", url+"/documents/second", listPage); code != http.StatusCreated {
		t.Fatalf("second PUT: %d", code)
	}
	req, err := http.NewRequest("PUT", url+"/documents/third", strings.NewReader(listPage))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT at capacity: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	// Replacing an existing id is not an admission.
	if code, _ := doJSON(t, "PUT", url+"/documents/second", listPage); code != http.StatusOK {
		t.Fatalf("replacement PUT: %d", code)
	}
	// Freeing a slot admits the new id.
	if code, _ := doJSON(t, "DELETE", url+"/documents/second", ""); code != http.StatusNoContent {
		t.Fatal("DELETE failed")
	}
	if code, _ := doJSON(t, "PUT", url+"/documents/third", listPage); code != http.StatusCreated {
		t.Fatalf("PUT after DELETE: %d", code)
	}
}

// TestSessionLRUReclaim: at capacity, a sufficiently idle
// least-recently-used session is reclaimed instead of shedding.
func TestSessionLRUReclaim(t *testing.T) {
	_, url := sessionServer(t, &Config{MaxSessions: 1, SessionIdleMS: 1})
	time.Sleep(10 * time.Millisecond)
	if code, _ := doJSON(t, "PUT", url+"/documents/next", listPage); code != http.StatusCreated {
		t.Fatalf("PUT with reclaimable LRU: %d", code)
	}
	if code, _ := doJSON(t, "GET", url+"/documents/page", ""); code != http.StatusNotFound {
		t.Fatalf("reclaimed session still present: %d", code)
	}
}

// TestSessionConcurrentPatchExtract hammers one session with
// concurrent editors and extractors — the -race net for the session
// path (edits and incremental runs serialize on the document).
func TestSessionConcurrentPatchExtract(t *testing.T) {
	_, url := sessionServer(t, nil)
	ul := extractAllSession(t, url, "page")["lists"][0]
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, v := doJSON(t, "PATCH", url+"/documents/page",
					fmt.Sprintf(`{"ops":[{"op":"insert","parent":%d,"pos":0,"term":"li"}]}`, ul))
				if code != http.StatusOK {
					errs <- fmt.Sprintf("PATCH: %d (%v)", code, v)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, v := doJSON(t, "POST", url+"/documents/page/extractall", "")
				if code != http.StatusOK {
					errs <- fmt.Sprintf("extractall: %d (%v)", code, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// 2 editors x 25 inserted items + the original two.
	if res := extractAllSession(t, url, "page"); len(res["items"]) != 52 {
		t.Fatalf("final items = %d, want 52", len(res["items"]))
	}
}

// TestSessionDeleteFreesArena: closing a session must leave nothing in
// the daemon pinning the document's arena — the weak-pointer contract
// of the pooled evaluation state.
func TestSessionDeleteFreesArena(t *testing.T) {
	s, url := sessionServer(t, nil)
	extractAllSession(t, url, "page") // materialize incremental state
	wp := func() weak.Pointer[tree.Arena] {
		ss, ok := s.sessions.get("page")
		if !ok {
			t.Fatal("session missing")
		}
		return weak.Make(ss.doc.Tree().Arena())
	}()
	if code, _ := doJSON(t, "DELETE", url+"/documents/page", ""); code != http.StatusNoContent {
		t.Fatal("DELETE failed")
	}
	for i := 0; i < 100 && wp.Value() != nil; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if wp.Value() != nil {
		t.Fatal("closed session's arena is still reachable")
	}
}

// TestSessionReleaseForgetsSnapshots: an MSO wrapper runs on each edit
// generation's live-tree snapshot and memoizes there; closing the
// session must leave no entry for any of the session's trees in the
// fused set's cache or any wrapper's.
func TestSessionReleaseForgetsSnapshots(t *testing.T) {
	s, url := sessionServer(t, &Config{Wrappers: []ConfigWrapper{
		{Name: "mso", WrapperSpec: WrapperSpec{Lang: mdlog.LangMSO, Source: `label_li(x)`}},
	}})
	for i := 0; i < 5; i++ {
		res := extractAllSession(t, url, "page")
		if len(res["mso"]) != len(res["items"]) {
			t.Fatalf("edit %d: mso %v, items %v", i, res["mso"], res["items"])
		}
		code, v := doJSON(t, "PATCH", url+"/documents/page",
			fmt.Sprintf(`{"ops":[{"op":"insert","parent":%d,"pos":9,"term":"li"}]}`, res["lists"][0]))
		if code != http.StatusOK {
			t.Fatalf("PATCH: %d (%v)", code, v)
		}
	}
	extractAllSession(t, url, "page")
	set, err := s.querySet()
	if err != nil {
		t.Fatal(err)
	}
	if set.Cache().Len() == 0 {
		t.Fatal("the MSO member memoized nothing; the test exercises no snapshot")
	}
	if code, _ := doJSON(t, "DELETE", url+"/documents/page", ""); code != http.StatusNoContent {
		t.Fatal("DELETE failed")
	}
	if n := set.Cache().Len(); n != 0 {
		t.Errorf("set cache holds %d entries after release, want 0", n)
	}
	for _, wr := range s.Registry().Snapshot() {
		if c := wr.Query.Cache(); c != nil && c.Len() != 0 {
			t.Errorf("wrapper %s cache holds %d entries after release, want 0", wr.Name, c.Len())
		}
	}
}
