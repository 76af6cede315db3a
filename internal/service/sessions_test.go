package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
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

// scrapeTotals reads every `_total` series of /metrics.
func scrapeTotals(t *testing.T, url string) map[string]float64 {
	t.Helper()
	out, err := readTotals(url)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readTotals(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if base, _, _ := strings.Cut(name, "{"); !strings.HasSuffix(base, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// decreased names the first `_total` series of prev that is missing
// from or lower in cur.
func decreased(prev, cur map[string]float64) string {
	for name, was := range prev {
		if now, ok := cur[name]; !ok || now < was {
			return fmt.Sprintf("%s went from %v to %v (present %v)", name, was, now, ok)
		}
	}
	return ""
}

// TestSessionCountersMonotonic: the session maintenance counters are
// Prometheus counters, so they must survive the sessions they count.
// Through a PUT, a structural PATCH, an extractall, a re-PUT of the
// same id and a DELETE, no `_total` series may decrease, and the
// closed session's work must still be counted at the end.
func TestSessionCountersMonotonic(t *testing.T) {
	_, url := sessionServer(t, nil)
	prev := scrapeTotals(t, url)
	step := func(what string) map[string]float64 {
		t.Helper()
		cur := scrapeTotals(t, url)
		if msg := decreased(prev, cur); msg != "" {
			t.Fatalf("after %s: %s", what, msg)
		}
		prev = cur
		return cur
	}

	ul := extractAllSession(t, url, "page")["lists"][0]
	step("extractall")
	items := extractAllSession(t, url, "page")["items"]
	code, v := doJSON(t, "PATCH", url+"/documents/page",
		fmt.Sprintf(`{"ops":[{"op":"remove","node":%d},{"op":"insert","parent":%d,"pos":0,"term":"li"}]}`, items[1], ul))
	if code != http.StatusOK {
		t.Fatalf("PATCH: %d (%v)", code, v)
	}
	step("PATCH")
	extractAllSession(t, url, "page")
	worked := step("extractall after PATCH")
	for _, name := range []string{"mdlogd_session_inc_applies_total", "mdlogd_session_inc_overdeleted_total"} {
		if worked[name] == 0 {
			t.Fatalf("%s = 0 after a structural edit was extracted", name)
		}
	}
	for _, name := range []string{"mdlogd_session_inc_fallback_total", "mdlogd_session_inc_reproved_total", "mdlogd_session_inc_rederived_total"} {
		if _, ok := worked[name]; !ok {
			t.Fatalf("metrics lack %s", name)
		}
	}

	if code, _ := doJSON(t, "PUT", url+"/documents/page", listPage); code != http.StatusOK {
		t.Fatalf("re-PUT: %d", code)
	}
	step("re-PUT")
	if code, _ := doJSON(t, "DELETE", url+"/documents/page", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE: %d", code)
	}
	final := step("DELETE")
	for _, name := range []string{"mdlogd_session_inc_applies_total", "mdlogd_session_inc_overdeleted_total"} {
		if final[name] != worked[name] {
			t.Fatalf("%s = %v after the session closed, want the %v it counted", name, final[name], worked[name])
		}
	}
}

// TestSessionCountersMonotonicConcurrent scrapes /metrics in a loop
// while sessions are edited, extracted, replaced and closed: a session
// leaving the store must move its counters into the retired totals in
// the same step, or a scrape between the two reads a `_total` below
// the one before it. The last step pins that directly: a scrape right
// after the store drops a session, before the handler releases it.
func TestSessionCountersMonotonicConcurrent(t *testing.T) {
	s, url := sessionServer(t, nil)
	done := make(chan struct{})
	failed := make(chan string, 1)
	go func() {
		defer close(failed)
		prev, err := readTotals(url)
		for err == nil {
			select {
			case <-done:
				return
			default:
			}
			var cur map[string]float64
			if cur, err = readTotals(url); err == nil {
				if msg := decreased(prev, cur); msg != "" {
					failed <- msg
					return
				}
				prev = cur
			}
		}
		failed <- err.Error()
	}()

	for i := 0; i < 40; i++ {
		ul := extractAllSession(t, url, "page")["lists"][0]
		code, v := doJSON(t, "PATCH", url+"/documents/page",
			fmt.Sprintf(`{"ops":[{"op":"insert","parent":%d,"pos":0,"term":"li"}]}`, ul))
		if code != http.StatusOK {
			t.Fatalf("PATCH: %d (%v)", code, v)
		}
		extractAllSession(t, url, "page")
		if i%2 == 0 {
			if code, _ := doJSON(t, "DELETE", url+"/documents/page", ""); code != http.StatusNoContent {
				t.Fatalf("DELETE: %d", code)
			}
		}
		if code, _ := doJSON(t, "PUT", url+"/documents/page", listPage); code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("PUT: %d", code)
		}
	}
	close(done)
	if msg, ok := <-failed; ok {
		t.Fatal(msg)
	}
	ul := extractAllSession(t, url, "page")["lists"][0]
	if code, v := doJSON(t, "PATCH", url+"/documents/page",
		fmt.Sprintf(`{"ops":[{"op":"insert","parent":%d,"pos":0,"term":"li"}]}`, ul)); code != http.StatusOK {
		t.Fatalf("PATCH: %d (%v)", code, v)
	}
	extractAllSession(t, url, "page")
	before := scrapeTotals(t, url)
	if got := before["mdlogd_session_inc_applies_total"]; got < 41 {
		t.Fatalf("mdlogd_session_inc_applies_total = %v after 41 extracted structural edits", got)
	}
	ss, ok := s.sessions.remove("page")
	if !ok {
		t.Fatal("session page is not open")
	}
	if msg := decreased(before, scrapeTotals(t, url)); msg != "" {
		t.Fatalf("between store removal and release: %s", msg)
	}
	s.releaseSession(ss)
}
