package mdlog

// Live documents. A Document wraps a parsed tree whose arena may be
// mutated in place (InsertSubtree / RemoveSubtree / SetText /
// SetAttr), records every edit as a tree.ArenaDelta window, and feeds
// those windows to per-plan incremental maintainers
// (eval.IncState, DESIGN.md § Incremental maintenance). A compiled
// query run through SelectIncremental / EvalIncremental — or a whole
// QuerySet through RunIncremental — pays per edit for the delta-rule
// maintenance of its model instead of re-evaluating the document from
// scratch; plans outside the maintainable fragment (the MSO
// automaton, the direct XPath/Elog⁻Δ evaluators) transparently fall
// back to a from-scratch run over the canonical live tree, mapped
// back to arena ids, so results are engine-independent. Each
// fallback snapshot's memoized results are forgotten once the
// document moves past it, and Release forgets the current one.
//
// All edits to a Document's tree MUST go through the Document: it
// serializes mutation against evaluation and keeps the delta log that
// the maintainers replay. Mutating the underlying tree directly
// leaves the maintainers behind the arena, which they detect and
// report as an error rather than serving stale results.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/tree"
)

// Document is a live, editable document: a tree plus the edit log and
// per-query incremental evaluation state that keep compiled queries'
// results maintained under mutation. Build one with NewDocument; edit
// through the mutation methods; query through
// CompiledQuery.SelectIncremental / EvalIncremental / AssignIncremental
// or QuerySet.RunIncremental. All methods are safe for concurrent use
// (one mutex serializes edits and incremental runs — concurrent
// editors and readers interleave at whole-operation granularity).
type Document struct {
	mu    sync.Mutex
	t     *Tree
	arena *tree.Arena

	// log holds the not-yet-universally-applied edit windows, one per
	// mutation call; total counts windows ever appended and dropped
	// counts windows pruned off the front once every maintainer has
	// consumed them, so state.applied - dropped indexes into log.
	log     []*tree.ArenaDelta
	total   int
	dropped int

	// states maps a plan identity (CompiledQuery.memoKey or
	// QuerySet.fusedKey) to its incremental maintainer.
	states map[any]*docState

	// snap memoizes the canonical live tree (and its preorder → arena
	// id mapping) per generation, for the fallback path of plans the
	// delta maintainer cannot cover.
	snap    *Tree
	snapPre []int32
	snapGen uint64

	// memoTree is the snapshot whose fallback results memoCaches hold.
	// A snapshot is never queried again once the document moves past
	// its generation, so superseding it (or Release) forgets it in each
	// of those caches.
	memoTree   *Tree
	memoCaches map[*TreeCache]bool

	edits int64
}

// docState is one plan's maintainer plus how many of the document's
// edit windows it has consumed.
type docState struct {
	inc     *eval.IncState
	applied int
}

// NewDocument makes t editable. The tree is adopted, not copied:
// after this call all edits must go through the returned Document.
func NewDocument(t *Tree) *Document {
	return &Document{
		t:      t,
		arena:  t.Arena(),
		states: map[any]*docState{},
	}
}

// Tree returns the underlying tree. Reading it concurrently with
// edits is racy; use Snapshot for a stable view of a live document.
func (d *Document) Tree() *Tree { return d.t }

// Generation returns the document's mutation counter; it advances on
// every edit, and all caches key on it.
func (d *Document) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.t.Generation()
}

// NumNodes returns the number of arena rows (live and dead — removal
// marks rows dead in place; insertion appends).
func (d *Document) NumNodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arena.Len()
}

// NumAlive returns the number of live nodes.
func (d *Document) NumAlive() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arena.NumAlive()
}

// LiveNodes returns the arena ids of the live nodes in document
// (preorder) order — the id space incremental query results use.
func (d *Document) LiveNodes() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	pre := d.arena.LivePreorder()
	out := make([]int, len(pre))
	for i, v := range pre {
		out[i] = int(v)
	}
	return out
}

// Snapshot returns the canonical live tree: the document re-parsed
// into a fresh immutable Tree with document-order (preorder) ids.
// Before any edit this is the document's own tree (arena ids already
// canonical); after edits it is a copy whose ids differ from the
// arena ids live queries return. Snapshots are memoized per
// generation.
func (d *Document) Snapshot() *Tree {
	d.mu.Lock()
	defer d.mu.Unlock()
	lt, _ := d.snapshotLocked()
	return lt
}

func (d *Document) snapshotLocked() (*Tree, []int32) {
	if !d.arena.Mutated() {
		return d.t, nil
	}
	if g := d.t.Generation(); d.snap == nil || d.snapGen != g {
		d.snap = d.arena.LiveTree()
		d.snapPre = d.arena.LivePreorder()
		d.snapGen = g
	}
	return d.snap, d.snapPre
}

// edit runs one mutation under the lock and appends its delta window
// to the log.
func (d *Document) edit(f func(*tree.ArenaDelta) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	del := d.arena.NewDelta()
	if err := f(del); err != nil {
		return err
	}
	d.log = append(d.log, del)
	d.total++
	d.edits++
	// With no maintainers (or all caught up elsewhere) the window is
	// dropped immediately; otherwise it lives until every maintainer
	// has consumed it.
	d.pruneLocked()
	return nil
}

func (d *Document) checkNode(v int) error {
	if v < 0 || v >= d.arena.Len() || !d.arena.Alive(int32(v)) {
		return fmt.Errorf("mdlog: node %d is not a live node of the document", v)
	}
	return nil
}

// InsertSubtree inserts sub (a hand-built or parsed node, adopted
// whole) as the pos-th child of parent (clamped to the child count)
// and returns the arena id of the subtree root.
func (d *Document) InsertSubtree(parent, pos int, sub *Node) (int, error) {
	root := -1
	err := d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(parent); err != nil {
			return err
		}
		r, err := d.arena.InsertSubtree(del, int32(parent), pos, sub)
		root = int(r)
		return err
	})
	if err != nil {
		return -1, err
	}
	return root, nil
}

// RemoveSubtree removes the subtree rooted at v (the root itself
// cannot be removed).
func (d *Document) RemoveSubtree(v int) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.RemoveSubtree(del, int32(v))
	})
}

// SetText replaces v's text content. Text is outside the τ_ur
// signature, so query results never change — the edit only advances
// the generation.
func (d *Document) SetText(v int, text string) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.SetText(del, int32(v), text)
	})
}

// AppendText appends suffix to v's text content (a convenience
// SetText of the concatenation — common for live logs and streaming
// ingestion). Like SetText, only the generation advances; spanner
// queries observe the new text on their next run.
func (d *Document) AppendText(v int, suffix string) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.AppendText(del, int32(v), suffix)
	})
}

// SetAttr sets attribute key on v. Like text, attributes are outside
// the τ_ur signature.
func (d *Document) SetAttr(v int, key, value string) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.SetAttr(del, int32(v), key, value)
	})
}

// DocumentStats is a point-in-time snapshot of a Document's state and
// maintenance counters.
type DocumentStats struct {
	// Generation is the mutation counter.
	Generation uint64
	// Nodes counts arena rows (live + dead); Live counts live nodes.
	Nodes, Live int
	// Edits counts mutation calls.
	Edits int64
	// PendingWindows is the length of the edit log not yet consumed by
	// every maintainer; MaintainedPlans is the number of per-plan
	// incremental states the document holds.
	PendingWindows, MaintainedPlans int
	// Inc aggregates the maintainers' counters (delta applies,
	// full-re-evaluation fallbacks, facts overdeleted / rederived).
	Inc eval.IncStats
}

// Stats snapshots the document's mutation and maintenance counters.
func (d *Document) Stats() DocumentStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	ds := DocumentStats{
		Generation:      d.t.Generation(),
		Nodes:           d.arena.Len(),
		Live:            d.arena.NumAlive(),
		Edits:           d.edits,
		PendingWindows:  len(d.log),
		MaintainedPlans: len(d.states),
	}
	for _, st := range d.states {
		is := st.inc.Stats()
		ds.Inc.Applies += is.Applies
		ds.Inc.Fallbacks += is.Fallbacks
		ds.Inc.Overdeleted += is.Overdeleted
		ds.Inc.Rederived += is.Rederived
	}
	return ds
}

// incRunLocked returns the maintained, projected model for one plan
// identity, creating the maintainer on first use and catching it up
// on the pending edit windows otherwise. Caller holds d.mu.
func (d *Document) incRunLocked(ctx context.Context, key any, engine string,
	build func() *eval.IncState) (*Database, Stats, error) {
	rs := Stats{Engine: engine}
	if err := ctx.Err(); err != nil {
		return nil, rs, err
	}
	start := time.Now()
	st := d.states[key]
	if st == nil {
		st = &docState{inc: build(), applied: d.total}
		d.states[key] = st
	} else if pending := d.log[st.applied-d.dropped:]; len(pending) > 0 {
		if err := st.inc.Apply(tree.ComposeDeltas(pending)); err != nil {
			return nil, rs, err
		}
		st.applied = d.total
	}
	db, err := st.inc.Database()
	if err != nil {
		return nil, rs, err
	}
	rs.Eval = time.Since(start)
	d.pruneLocked()
	return db, rs, nil
}

// pruneLocked drops edit windows every maintainer has consumed.
func (d *Document) pruneLocked() {
	min := d.total
	for _, st := range d.states {
		if st.applied < min {
			min = st.applied
		}
	}
	if drop := min - d.dropped; drop > 0 {
		d.log = append([]*tree.ArenaDelta(nil), d.log[drop:]...)
		d.dropped = min
	}
}

// runIncrementalIn evaluates q against the live document. Grounding
// plans (linear, bitmap) are delta-maintained via the document's
// per-plan IncState; every other plan runs from scratch on the
// canonical live-tree snapshot (memoized per generation, results
// memoized in cache under the generation-aware key) with ids mapped
// back to arena ids. Caller holds d.mu.
func (q *CompiledQuery) runIncrementalIn(ctx context.Context, d *Document, cache *TreeCache) (*Database, Stats, error) {
	plan := q.plan
	if sp, ok := plan.(*spannerPlan); ok {
		// A spanner's node part is an ordinary grounding plan; maintain
		// it like one (span enumeration happens on top, per call).
		plan = sp.inner
	}
	switch p := plan.(type) {
	case *linearPlan:
		return d.incRunLocked(ctx, q.memoKey, p.engineName(),
			func() *eval.IncState { return p.plan.NewIncState(d.arena) })
	case *bitmapPlan:
		return d.incRunLocked(ctx, q.memoKey, p.engineName(),
			func() *eval.IncState { return p.plan.NewIncState(d.arena) })
	default:
		lt, pre := d.snapshotLocked()
		if cache != nil {
			d.memoizeOnLocked(lt, cache)
		}
		db, rs, err := q.runCachedIn(ctx, lt, cache)
		if err != nil {
			return nil, rs, err
		}
		if pre != nil {
			db = remapToArena(db, pre, d.arena.Len())
		}
		return db, rs, nil
	}
}

// memoizeOnLocked records that cache is about to memoize fallback
// results keyed by the snapshot lt, first forgetting the superseded
// snapshot in every cache that memoized it. Caller holds d.mu.
func (d *Document) memoizeOnLocked(lt *Tree, cache *TreeCache) {
	if lt != d.memoTree {
		d.forgetMemoLocked()
		d.memoTree = lt
		d.memoCaches = map[*TreeCache]bool{}
	}
	d.memoCaches[cache] = true
}

func (d *Document) forgetMemoLocked() {
	for c := range d.memoCaches {
		c.Forget(d.memoTree)
	}
	d.memoTree, d.memoCaches = nil, nil
}

// Release drops the cache entries the document's fallback runs left
// behind — results the MSO automaton and the direct evaluators
// memoized on its current snapshot — for closing a document. The
// document stays usable; a later run simply memoizes again.
func (d *Document) Release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.forgetMemoLocked()
}

// remapToArena rewrites a database computed over the live-tree
// snapshot (preorder ids) into arena ids via the live preorder.
func remapToArena(db *Database, pre []int32, dom int) *Database {
	out := datalog.NewDatabase(dom)
	for _, pred := range db.Preds() {
		r := db.RelOrNil(pred)
		switch r.Arity {
		case 1:
			ids := db.UnarySet(pred)
			mapped := make([]int, len(ids))
			for i, v := range ids {
				mapped[i] = int(pre[v])
			}
			sort.Ints(mapped)
			out.Rel(pred, 1).AddUnarySet(mapped)
		case 0:
			if r.Len() > 0 {
				out.Rel(pred, 0).Add(nil)
			}
		}
	}
	return out
}

// SelectIncremental is Select against a live document: the query's
// model is maintained incrementally under the document's edits
// (DESIGN.md § Incremental maintenance), so an edit re-derives only
// what the edit touched. Returned ids are arena ids — stable across
// edits, not necessarily document order after mutations (see
// Document.Snapshot for canonical ids).
func (q *CompiledQuery) SelectIncremental(ctx context.Context, d *Document) ([]int, error) {
	if q.queryPred == "" {
		return nil, fmt.Errorf("mdlog: %v query has no distinguished query predicate; compile with WithQueryPred or add a ?- directive / Extract list", q.lang)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	db, rs, err := q.runIncrementalIn(ctx, d, q.cache)
	if err != nil {
		return nil, err
	}
	ids := db.UnarySet(q.queryPred)
	rs.Runs = 1
	rs.Facts = int64(len(ids))
	q.record(rs)
	return ids, nil
}

// EvalIncremental is Eval against a live document (see
// SelectIncremental for the id space and maintenance contract).
func (q *CompiledQuery) EvalIncremental(ctx context.Context, d *Document) (*Database, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	db, rs, err := q.runIncrementalIn(ctx, d, q.cache)
	if err != nil {
		return nil, err
	}
	rs.Runs = 1
	rs.Facts = int64(db.Size())
	q.record(rs)
	return db, nil
}

// AssignIncremental is Assign against a live document (see
// SelectIncremental for the id space and maintenance contract).
func (q *CompiledQuery) AssignIncremental(ctx context.Context, d *Document) (Assignment, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	db, rs, err := q.runIncrementalIn(ctx, d, q.cache)
	if err != nil {
		return nil, err
	}
	a := Assignment{}
	var facts int64
	for _, pred := range q.extract {
		if ids := db.UnarySet(pred); len(ids) > 0 {
			a[pred] = ids
			facts += int64(len(ids))
		}
	}
	rs.Runs = 1
	rs.Facts = facts
	q.record(rs)
	return a, nil
}

// RunIncremental is Run against a live document: the fused pass
// maintains ONE incremental state for the whole member union (split
// per member as in Run), and unfused members maintain (or fall back)
// individually. Result ids are arena ids; everything else matches
// Run, including per-member error isolation and stats attribution.
func (s *QuerySet) RunIncremental(ctx context.Context, d *Document) []SetResult {
	out := make([]SetResult, len(s.members))
	for i, m := range s.members {
		out[i] = SetResult{Name: m.Name, Index: i}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var total Stats
	if s.fused != nil {
		full, shared, err := d.incRunLocked(ctx, s.fusedKey, s.fused.Engine().String(),
			func() *eval.IncState { return s.fused.NewIncState(d.arena) })
		total.Add(shared)
		var dbs []*Database
		if err == nil {
			dbs = s.fused.Split(full)
		}
		for j, idx := range s.fusedIdx {
			res := &out[idx]
			if err != nil {
				res.Err = err
				continue
			}
			st := eval.AttributeShared(shared, len(s.fusedIdx))
			st.Runs, st.FusedRuns = 1, 1
			s.fill(res, arenaSource{a: d.arena}, dbs[j], st)
		}
	}
	for i, m := range s.members {
		if s.isFused(i) {
			continue
		}
		cache := s.cache
		if m.Query.cache == nil {
			cache = nil
		}
		db, rs, err := m.Query.runIncrementalIn(ctx, d, cache)
		total.Add(rs)
		if err != nil {
			out[i].Err = err
			continue
		}
		rs.Runs = 1
		s.fill(&out[i], arenaSource{a: d.arena}, db, rs)
	}
	for i := range out {
		total.Facts += out[i].Stats.Facts
	}
	total.Runs = 1
	s.agg.record(total)
	return out
}
