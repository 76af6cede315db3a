package main

// Seeded request streams. Every workload is a pure function of the
// seed: documents are generated before timing, and an op's descriptor
// is derived from (seed, op index) by a counter-based hash, so an
// unbounded closed loop can draw ops without pre-rendering bodies and
// two runs with one seed send byte-identical streams.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"

	"mdlog/internal/html"
)

// scale sizes one run. fullScale is what the benchmark measures;
// tests use tinyScale so a self-check finishes in seconds.
type scale struct {
	crawlRows, crawlPool    int // rows per crawl listing; distinct base listings
	fleetRows, fleetPool    int // rows per fleet listing; distinct base pages (half news)
	newsSections, newsItems int // news index shape
	repeatWindow            int // a fleet repeat draws from this many preceding ops
	editRows                int // rows of each live-edit session document
	liveCycles              int // distinct edit cycles per live-edit client
	setups                  int // set-ups per run; setup_s is their median
}

var fullScale = scale{
	crawlRows: 3000, crawlPool: 8,
	fleetRows: 200, fleetPool: 32,
	newsSections: 12, newsItems: 30,
	repeatWindow: 128,
	editRows:     1100,
	liveCycles:   16,
	setups:       7,
}

var tinyScale = scale{
	crawlRows: 40, crawlPool: 2,
	fleetRows: 6, fleetPool: 4,
	newsSections: 2, newsItems: 3,
	repeatWindow: 4,
	editRows:     30,
	liveCycles:   2,
	setups:       2,
}

// Run shape, the same at every scale.
const (
	clients       = 2    // closed-loop clients, one per CPU of the reference machine
	windows       = 5    // throughput and p50 are medians over this many windows of a run
	minOps        = 4    // a timed phase runs at least this many ops
	httpShare     = 0.5  // share of --seconds a traced run spends on HTTP
	replayShare   = 0.25 // share of --seconds for each of the two replays
	oracleWorkers = 2
	digestOps     = 512 // ops hashed into the printed stream digest

	liveEditMinPct, liveEditMaxPct = 0.1, 10 // live-edit patch sizes, % of nodes

	// liveWarmOps is how many one-edit ops each live-edit client runs
	// before timing. Every edit generation leaves a snapshot tree in the
	// fused set's TreeCache (the unfused MSO members evaluate on it), and
	// closing a session does not release them; 2 × 130 generations fill
	// the cache to its 256-tree bound, so peak RSS does not track how many
	// ops a run happened to complete.
	liveWarmOps = 130
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCrawl = "crawl-large"
	wlFleet = "fleet-mixed"
	wlLive  = "live-edit"
)

var workloadNames = []string{wlCrawl, wlFleet, wlLive}

// crawlDocCacheEntries bounds crawl-large's dedup cache below the
// daemon's default of 256: 256 retained 27k-node trees (≈5 MB each,
// plus their memoized results) took the process's peak RSS past 4 GB.
// Every body is distinct, so the cache still only misses and evicts.
const crawlDocCacheEntries = 32

// crawlWrapper is the single wrapper crawl-large serves (13 rules after
// the optimizer): every cell of a row that has a bold cell.
const (
	crawlWrapperName = "rows"
	crawlWrapperSrc  = "//tr[td/b]/td"
)

// hash64 is splitmix64 over the seed, op index and a stream tag: the
// counter-based generator behind every per-op draw.
func hash64(seed int64, i int, tag uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9 ^ tag*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rngFor is a math/rand source for one generated artefact.
func rngFor(seed int64, tag uint64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(hash64(seed, i, tag) >> 1)))
}

// request is one HTTP request of a stream. Bodies of base pages carry a
// marker comment in front that makes their bytes distinct; comments
// create no nodes, so every marked variant parses to the base page's
// tree.
type request struct {
	method, path string
	base         int // index into the workload's page pool; -1 for JSON bodies
	marker       int // distinct-bytes marker (op index of the first sender)
	body         []byte
	spans        bool // ?output=spans
}

// reader streams the request body without copying the base page.
func (r *request) reader(pages []string) (io.Reader, int64) {
	if r.base < 0 {
		return bytes.NewReader(r.body), int64(len(r.body))
	}
	m := markerOf(r.marker)
	return io.MultiReader(strings.NewReader(m), strings.NewReader(pages[r.base])),
		int64(len(m) + len(pages[r.base]))
}

// bytes renders the whole body (oracle, replay and digest only).
func (r *request) bytes(pages []string) []byte {
	if r.base < 0 {
		return r.body
	}
	return []byte(markerOf(r.marker) + pages[r.base])
}

func markerOf(i int) string { return fmt.Sprintf("<!-- op %d -->", i) }

// crawlPages are the distinct base listings of crawl-large.
func crawlPages(seed int64, sc scale) []string {
	ps := make([]string, sc.crawlPool)
	for i := range ps {
		ps[i] = html.ProductListing(rngFor(seed, 1, i), sc.crawlRows)
	}
	return ps
}

// crawlOp is crawl-large's op i: one /extract of a never-repeated
// body (the marker is the op index), so the dedup cache only misses.
func crawlOp(seed int64, sc scale, i int) request {
	return request{
		method: "POST", path: "/extract/" + crawlWrapperName,
		base:   int(hash64(seed, i, 10) % uint64(sc.crawlPool)),
		marker: i,
	}
}

// fleetPages alternate ≈200-row listings with news indexes.
func fleetPages(seed int64, sc scale) []string {
	ps := make([]string, sc.fleetPool)
	for i := range ps {
		rng := rngFor(seed, 2, i)
		if i%2 == 0 {
			ps[i] = html.ProductListing(rng, sc.fleetRows)
		} else {
			ps[i] = html.NewsIndex(rng, sc.newsSections, sc.newsItems)
		}
	}
	return ps
}

// fleetOp is fleet-mixed's op i: with probability 3/8 a byte-identical
// repeat of one of the repeatWindow preceding ops (a working set that
// fits the 256-entry dedup cache), else a fresh body; one op in four
// asks for spans. Repeats are answered from the result memo in a
// fraction of a fresh page's time; at a share of exactly 1/2 the
// latency median would fall in the gap between the two and swing
// between runs.
func fleetOp(seed int64, sc scale, i int) request {
	r := request{method: "POST", path: "/extractall", spans: hash64(seed, i, 20)%4 == 0}
	if r.spans {
		r.path += "?output=spans"
	}
	j := i
	for j > 0 && hash64(seed, j, 21)%8 < 3 {
		w := uint64(min(j, sc.repeatWindow))
		j -= 1 + int(hash64(seed, j, 22)%w)
	}
	r.base = int(hash64(seed, j, 23) % uint64(sc.fleetPool))
	r.marker = j
	return r
}

// patchOp mirrors the JSON shape of one PATCH /documents/{id} edit.
type patchOp struct {
	Op     string `json:"op"`
	Parent int    `json:"parent,omitempty"`
	Pos    int    `json:"pos,omitempty"`
	Term   string `json:"term,omitempty"`
	Node   int    `json:"node,omitempty"`
	Text   string `json:"text,omitempty"`
}

type patchReq struct {
	Ops []patchOp `json:"ops"`
}

// rowTerm is an inserted product row; its price #text is the sixth
// node in preorder.
const (
	rowTerm        = "tr(td(#text),td(b(#text)),td(em(#text)))"
	rowNodes       = 9
	rowPriceOffset = 5
)

// session is one live-edit client's document and its edit script: a
// list of cycles, each liveCycle patches long and starting from the
// freshly PUT document. Op i is patch i%liveCycle of cycle
// (i/liveCycle) mod len(cycles); the client re-PUTs the document before
// each cycle, so the stream is unbounded and every cycle sees the same
// arena size (inserts append rows and removals leave dead rows, so one
// endless session would slow every later op).
type session struct {
	id     string
	html   string
	cycles [][]patch
	warm   []patch // one-edit settext patches run before timing
}

// patch is one PATCH body and its edit count.
type patch struct {
	body  []byte
	edits int
}

// patch returns op i's patch.
func (s *session) patch(i int) patch {
	return s.cycles[i/liveCycle%len(s.cycles)][i%liveCycle]
}

// liveRow is a product row of the simulated live document.
type liveRow struct{ tr, price int }

// Live-edit cycles are stratified: each holds every (kind, size) pair
// once, in seeded order, so every seed replays the same mix of edit
// costs. Sizes are a log ladder from liveEditMinPct to liveEditMaxPct
// of the document's nodes.
const (
	liveKinds = 3 // price settext, row insert, row remove
	liveSizes = 5
	liveCycle = liveKinds * liveSizes
)

// liveSessions builds each client's session document and its edit
// cycles. Arena ids are simulated: inserts append rows in preorder at
// the arena's end, removals leave dead rows in place.
func liveSessions(seed int64, sc scale) ([]session, error) {
	out := make([]session, clients)
	for c := range out {
		rng := rngFor(seed, 3, c)
		src := html.ProductListing(rng, sc.editRows)
		t := html.Parse(src)
		var table int
		var base []liveRow
		for _, n := range t.Nodes {
			switch {
			case n.Label == "table":
				table = n.ID
			case n.Label == "tr" && len(n.Children) == 3 && n.Children[0].Label == "td":
				base = append(base, liveRow{tr: n.ID, price: n.Children[1].Children[0].Children[0].ID})
			}
		}
		if len(base) != sc.editRows {
			return nil, fmt.Errorf("live-edit: found %d product rows, want %d", len(base), sc.editRows)
		}
		s := session{id: fmt.Sprintf("s%d", c), html: src}
		for k := 0; k < liveWarmOps; k++ {
			b, err := json.Marshal(patchReq{Ops: []patchOp{{Op: "settext", Node: base[k%len(base)].price, Text: fmt.Sprintf("$%d.00", k+1)}}})
			if err != nil {
				return nil, err
			}
			s.warm = append(s.warm, patch{body: b, edits: 1})
		}
		for k := 0; k < sc.liveCycles; k++ {
			rows, arenaLen := slices.Clone(base), t.Size()
			var cycle []patch
			for _, pair := range rng.Perm(liveCycle) {
				kind, size := pair%liveKinds, pair/liveKinds
				pct := liveEditMinPct * math.Pow(liveEditMaxPct/liveEditMinPct, float64(size)/(liveSizes-1))
				n := max(1, int(float64(t.Size())*pct/100+0.5))
				var req patchReq
				switch kind {
				case 0:
					for e := 0; e < n; e++ {
						r := rows[rng.Intn(len(rows))]
						req.Ops = append(req.Ops, patchOp{Op: "settext", Node: r.price,
							Text: fmt.Sprintf("$%d.%02d", 1+rng.Intn(500), rng.Intn(100))})
					}
				case 1:
					for e := 0; e < max(1, n/rowNodes); e++ {
						req.Ops = append(req.Ops, patchOp{Op: "insert", Parent: table,
							Pos: 1 + rng.Intn(len(rows)+1), Term: rowTerm})
						rows = append(rows, liveRow{tr: arenaLen, price: arenaLen + rowPriceOffset})
						arenaLen += rowNodes
					}
				case 2:
					for e := 0; e < max(1, n/rowNodes) && len(rows) > 1; e++ {
						x := rng.Intn(len(rows))
						req.Ops = append(req.Ops, patchOp{Op: "remove", Node: rows[x].tr})
						rows[x] = rows[len(rows)-1]
						rows = rows[:len(rows)-1]
					}
				}
				b, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				cycle = append(cycle, patch{body: b, edits: len(req.Ops)})
			}
			s.cycles = append(s.cycles, cycle)
		}
		out[c] = s
	}
	return out, nil
}

// liveOps is live-edit op i of a client: its PATCH, then the session
// extractall.
func liveOps(s *session, i int) [2]request {
	return [2]request{
		{method: "PATCH", path: "/documents/" + s.id, base: -1, body: s.patch(i).body},
		s.extractAll(),
	}
}

// put opens (or reopens) the client's session on its document.
func (s *session) put() request {
	return request{method: "PUT", path: "/documents/" + s.id, base: -1, body: []byte(s.html)}
}

func (s *session) extractAll() request {
	return request{method: "POST", path: "/documents/" + s.id + "/extractall", base: -1}
}

// streamDigest hashes the first n requests of a workload's stream
// (method, path and body bytes), so a seed's stream can be compared
// across runs and machines.
func streamDigest(w *workload, n int) string {
	h := sha256.New()
	add := func(r request) {
		fmt.Fprintf(h, "%s %s %d\n", r.method, r.path, len(r.bytes(w.pages)))
		h.Write(r.bytes(w.pages))
	}
	switch w.name {
	case wlCrawl, wlFleet:
		for i := 0; i < n; i++ {
			add(w.op(i))
		}
	case wlLive:
		for c := range w.sessions {
			s := &w.sessions[c]
			for i := 0; i < n; i++ {
				if i%liveCycle == 0 {
					add(s.put())
					add(s.extractAll())
				}
				for _, r := range liveOps(s, i) {
					add(r)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
