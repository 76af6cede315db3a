package eval

// The bitmap engine: monadic datalog as bulk bitset algebra over the
// arena columns. A monadic predicate over a document of n nodes is a
// subset of {0..n-1}, so instead of grounding every rule into
// propositional Horn clauses (plan.go), this engine evaluates each
// connected rule as a short pipeline of word-parallel bitmap kernels:
//
//   - the anchor variable's conditions seed a "live" bitmap (label
//     tests become per-symbol bitmaps, built once per run and shared
//     across rules);
//   - each τ_ur body atom (firstchild, nextsibling, lastchild,
//     child_k — all injective partial functions, Proposition 4.1)
//     becomes a column gather: for every live anchor, the bound
//     variable's node id is read straight out of the arena column and
//     anchors whose binding is undefined drop out of the word;
//   - conditions on non-anchor variables filter the live words through
//     the gathered columns; non-spanning-tree atoms are verified the
//     same way;
//   - the surviving live bitmap IS the head predicate's new extension
//     (compileLinear anchors unary-headed rules at the head variable).
//
// One columnar pass over every rule derives all facts whose bodies
// need nothing derived later. Recursion then runs as a fact-at-a-time
// worklist — the linear-time unit propagation of Proposition 3.5,
// lifted to rules: every new (predicate, node) fact is pushed exactly
// once, when it joins its extension. Popping it visits each body
// occurrence of its predicate; because every binary step is an
// injective partial function, walking the rule's spanning-tree path
// backwards from the node (slotPaths) names the unique anchor the fact
// can help justify, and one scalar body check (evalAnchor) against the
// current extensions decides it. Each fact is checked once per body
// occurrence, so the work is O(|P|·|dom|) however long the recursion
// chains are, and the engine computes the same least model T_P^ω as
// the Theorem 4.2 engine. A propositional flip can enable anchors
// anywhere, so it re-runs the rules reading it columnar instead — see
// DESIGN.md § engine comparison.

import (
	"math/bits"
	"slices"
	"sync"
	"weak"

	"mdlog/internal/bitset"
	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// BitmapPlan is a monadic datalog program prepared once for the
// bitmap engine and runnable against any number of documents. It
// reuses the Theorem 4.2 grounding plans (connected splitting, anchor
// selection, spanning-tree steps) and adds the per-rule analyses the
// bitmap kernels need: conditions grouped by variable slot and the
// inverse step paths the worklist walks.
//
// A BitmapPlan is immutable after NewBitmapPlan and safe for
// concurrent use by multiple goroutines.
type BitmapPlan struct {
	pl      *Plan
	rules   []bitmapRule
	maxVars int
	// unaryDeps[pid] lists the body occurrences of a unary predicate,
	// propDeps[pid] the rules reading a propositional one — the
	// worklist's wake-up lists.
	unaryDeps [][]bodyOcc
	propDeps  [][]int

	// pool recycles per-run state between Run calls. A pooled state
	// that comes back for the same document (same Nav) also keeps its
	// per-document condition bitmaps, so repeat evaluations skip the
	// label and node-class column scans — the engine-level analogue of
	// TreeCache reusing navigation arrays.
	pool sync.Pool
}

// bodyOcc is one unary IDB atom of a rule body: the rule and the
// variable slot the atom constrains.
type bodyOcc struct{ rule, slot int }

// bitmapRule is one connected rule with its conditions regrouped for
// columnar evaluation.
type bitmapRule struct {
	lr *linearRule
	// slotConds / slotIDB group the rule's unary EDB checks and unary
	// IDB atoms by the variable slot they constrain, so each can be
	// applied as soon as the slot's column is gathered.
	slotConds [][]unaryCheck
	slotIDB   [][]idbUnaryRef
	// slotPaths[slot] walks from a slot back to the anchor, inverting
	// each spanning-tree step; empty at the anchor itself.
	slotPaths [][]invStep
}

// invStep is one spanning-tree step to undo: the original step bound
// its target in the direction recorded by forward, so the inverse
// applies the opposite direction of the same injective partial
// function.
type invStep struct {
	edge    binEdge
	forward bool
}

// walkInv follows an inverse spanning-tree path from v, returning the
// candidate anchor or -1.
func walkInv(nav *Nav, path []invStep, v int) int {
	for _, is := range path {
		if is.forward {
			v = is.edge.backward(nav, v)
		} else {
			v = is.edge.forward(nav, v)
		}
		if v < 0 {
			return -1
		}
	}
	return v
}

// NewBitmapPlan validates and prepares p for repeated bitmap-engine
// evaluation. It accepts exactly the programs NewPlan accepts (the
// linear fragment of Theorem 4.2: monadic, τ_ur ∪ {lastchild,
// child_k}, no child/2 — eliminate that with tmnf.Transform first).
func NewBitmapPlan(p *datalog.Program) (*BitmapPlan, error) {
	pl, err := NewPlan(p)
	if err != nil {
		return nil, err
	}
	return pl.Bitmap(), nil
}

// Bitmap derives the bitmap-engine plan from a prepared linear plan;
// it returns the same relations as pl, Visible projection included.
func (pl *Plan) Bitmap() *BitmapPlan {
	bp := &BitmapPlan{
		pl:        pl,
		unaryDeps: make([][]bodyOcc, len(pl.unaryPreds)),
		propDeps:  make([][]int, len(pl.propPreds)),
	}
	for ri, lr := range pl.rules {
		br := bitmapRule{
			lr:        lr,
			slotConds: make([][]unaryCheck, lr.nvars),
			slotIDB:   make([][]idbUnaryRef, lr.nvars),
			slotPaths: make([][]invStep, lr.nvars),
		}
		bp.maxVars = max(bp.maxVars, lr.nvars)
		for _, u := range lr.unary {
			br.slotConds[u.v] = append(br.slotConds[u.v], u)
		}
		for _, u := range lr.idbUnary {
			br.slotIDB[u.v] = append(br.slotIDB[u.v], u)
			if occ := (bodyOcc{ri, u.v}); !slices.Contains(bp.unaryDeps[u.pid], occ) {
				bp.unaryDeps[u.pid] = append(bp.unaryDeps[u.pid], occ)
			}
		}
		for _, pid := range lr.idbProp {
			if !slices.Contains(bp.propDeps[pid], ri) {
				bp.propDeps[pid] = append(bp.propDeps[pid], ri)
			}
		}
		// Which step bound each slot (the anchor has none).
		boundBy := make([]int, lr.nvars)
		for si, st := range lr.steps {
			if st.forward {
				boundBy[st.edge.y] = si
			} else {
				boundBy[st.edge.x] = si
			}
		}
		for slot := range br.slotPaths {
			for s := slot; s != lr.anchor; {
				st := lr.steps[boundBy[s]]
				br.slotPaths[slot] = append(br.slotPaths[slot], invStep{edge: st.edge, forward: st.forward})
				if st.forward {
					s = st.edge.x
				} else {
					s = st.edge.y
				}
			}
		}
		bp.rules = append(bp.rules, br)
	}
	return bp
}

// Program returns the source program the plan was built from.
func (bp *BitmapPlan) Program() *datalog.Program { return bp.pl.Program() }

// QueryPred returns the program's distinguished query predicate.
func (bp *BitmapPlan) QueryPred() string { return bp.pl.QueryPred() }

// bitmapRun is the mutable state of one Run call, owned exclusively by
// that call between the pool Get and Put — which is what keeps Run
// safe to call concurrently on a shared BitmapPlan.
type bitmapRun struct {
	bp  *BitmapPlan
	nav *Nav
	// weakNav remembers which Nav the per-document bitmaps were built
	// for while the state sits in the pool. It is weak on purpose: a
	// pooled run state must not pin a closed document session's arena
	// in memory (the navigation arrays alias every arena column).
	weakNav   weak.Pointer[Nav]
	dom       int
	labelSyms []int32

	// unary[pid] / props[pid] are the current extensions. work holds
	// the unary facts derived but not yet propagated, flips the
	// propositional predicates likewise; each enters exactly once, at
	// the moment it is derived.
	unary []*bitset.Set
	props []bool
	work  []fact
	flips []int

	// Lazily built per-condition bitmaps shared by every rule that
	// seeds its live set from the same label test or node class.
	// deadBm masks the tombstoned rows of a mutated arena out of every
	// condition bitmap (nil while the document has no dead rows).
	labelBm []*bitset.Set
	kindBm  [uDom + 1]*bitset.Set
	deadBm  *bitset.Set

	// Scratch: live is the pipeline bitmap, cols the gathered binding
	// columns (one per non-anchor slot), binding the scalar-evaluation
	// buffer.
	live    *bitset.Set
	cols    [][]int32
	binding []int

	// anchorChecks counts evalAnchor calls and columnarPasses
	// evalColumnar calls — the scalar and the O(|dom|) units of the
	// O(|P|·|dom|) work bound, which the tests pin.
	anchorChecks, columnarPasses int
}

// fact is one derived (unary predicate, node) pair.
type fact struct{ pid, v int32 }

// newRun allocates run state for a domain of dom nodes; the caller
// supplies the extensions and the document (resetDoc).
func (bp *BitmapPlan) newRun(dom int) *bitmapRun {
	pl := bp.pl
	return &bitmapRun{
		bp:        bp,
		dom:       dom,
		labelSyms: make([]int32, len(pl.labels)),
		props:     make([]bool, len(pl.propPreds)),
		labelBm:   make([]*bitset.Set, len(pl.labels)),
		live:      bitset.New(dom),
		cols:      make([][]int32, bp.maxVars),
		binding:   make([]int, bp.maxVars),
	}
}

// resetDoc points the run at nav, dropping the previous document's
// condition bitmaps and re-resolving the label symbols.
func (st *bitmapRun) resetDoc(nav *Nav) {
	st.nav = nav
	clear(st.labelBm)
	clear(st.kindBm[:])
	st.deadBm = nil
	for i, l := range st.bp.pl.labels {
		st.labelSyms[i] = nav.LabelID(l)
	}
}

// acquire returns run state for nav: a pooled state when one is
// available (keeping its per-document condition bitmaps if it served
// the same Nav), a freshly allocated one otherwise. The gather columns
// are never cleared — every read of a column entry is preceded by a
// write for the same live bit within the same pass.
func (bp *BitmapPlan) acquire(nav *Nav) *bitmapRun {
	dom := nav.Dom()
	if v := bp.pool.Get(); v != nil {
		if st := v.(*bitmapRun); st.dom == dom {
			if st.weakNav.Value() == nav {
				st.nav = nav
			} else {
				st.resetDoc(nav)
			}
			for _, u := range st.unary {
				u.Clear()
			}
			clear(st.props)
			st.anchorChecks, st.columnarPasses = 0, 0
			return st
		}
	}
	st := bp.newRun(dom)
	st.unary = make([]*bitset.Set, len(bp.pl.unaryPreds))
	for i := range st.unary {
		st.unary[i] = bitset.New(dom)
	}
	st.resetDoc(nav)
	return st
}

// Run evaluates the program on the document behind nav, returning the
// plan's visible intensional relations — the same T_P^ω restriction
// Plan.Run computes, by bulk bitmap algebra instead of Horn
// propagation.
func (bp *BitmapPlan) Run(nav *Nav) (*datalog.Database, error) {
	st := bp.acquire(nav)
	st.solve()
	out := materialize(bp.pl, st.unary, st.props, st.dom)
	bp.release(st)
	return out, nil
}

// release parks run state in the pool. The strong Nav reference is
// dropped (pooled state must not keep a document alive — see weakNav);
// if the same Nav comes back before it is collected, acquire still
// reuses the per-document condition bitmaps.
func (bp *BitmapPlan) release(st *bitmapRun) {
	st.weakNav = weak.Make(st.nav)
	st.nav = nil
	bp.pool.Put(st)
}

// solve computes the least model from empty extensions: one columnar
// pass over every rule, then the worklist to fixpoint.
func (st *bitmapRun) solve() {
	for ri := range st.bp.rules {
		st.evalColumnar(ri)
	}
	st.fixpoint()
}

// fixpoint drains the worklist. A popped fact tries, for each body
// occurrence of its predicate, the one anchor the inverse path names;
// a popped flip re-runs the rules reading the proposition columnar.
// Both full evaluation (seeded by the columnar pass) and incremental
// maintenance (seeded by the rederivation frontier of an arena delta)
// end here.
func (st *bitmapRun) fixpoint() {
	bp := st.bp
	for {
		if n := len(st.work); n > 0 {
			f := st.work[n-1]
			st.work = st.work[:n-1]
			for _, o := range bp.unaryDeps[f.pid] {
				st.tryAnchor(o.rule, bp.rules[o.rule].slotPaths[o.slot], int(f.v))
			}
		} else if n := len(st.flips); n > 0 {
			pid := st.flips[n-1]
			st.flips = st.flips[:n-1]
			for _, ri := range bp.propDeps[pid] {
				st.evalColumnar(ri)
			}
		} else {
			return
		}
	}
}

// tryAnchor walks path back from node w to rule ri's candidate anchor
// and, when the anchor's head fact is not yet known, checks the body
// there and derives the head.
func (st *bitmapRun) tryAnchor(ri int, path []invStep, w int) {
	lr := st.bp.rules[ri].lr
	v := walkInv(st.nav, path, w)
	if v < 0 || !st.nav.Alive(v) {
		return
	}
	if lr.headVar >= 0 {
		if st.unary[lr.headID].Has(v) {
			return
		}
	} else if st.props[lr.headID] {
		return
	}
	if !st.evalAnchor(lr, v) {
		return
	}
	if lr.headVar < 0 {
		st.setProp(lr.headID)
		return
	}
	st.unary[lr.headID].Add(v)
	st.push(lr.headID, v)
}

// push queues a new unary fact — unless no rule body reads its
// predicate, in which case there is nothing to propagate.
func (st *bitmapRun) push(pid, v int) {
	if len(st.bp.unaryDeps[pid]) > 0 {
		st.work = append(st.work, fact{int32(pid), int32(v)})
	}
}

// setProp derives a propositional predicate, queueing the flip (each
// prop flips at most once per run).
func (st *bitmapRun) setProp(pid int) {
	if !st.props[pid] {
		st.props[pid] = true
		st.flips = append(st.flips, pid)
	}
}

// materialize converts the visible extension bitmaps into the Database
// shape the engines return.
func materialize(pl *Plan, unary []*bitset.Set, props []bool, dom int) *datalog.Database {
	out := datalog.NewDatabase(dom)
	var ids []int
	for _, pi := range pl.outUnary {
		ids = unary[pi].AppendBits(ids[:0])
		out.Rel(pl.unaryPreds[pi], 1).AddUnarySet(ids)
	}
	for _, pi := range pl.outProp {
		if props[pi] {
			out.Rel(pl.propPreds[pi], 0).Add(nil)
		}
	}
	return out
}

// aliveMask subtracts the tombstoned rows of a mutated arena from bm.
// On never-mutated documents (nav.Dead == nil) it is a no-op; the dead
// bitmap itself is built once per document and shared.
func (st *bitmapRun) aliveMask(bm *bitset.Set) {
	if st.nav.Dead == nil {
		return
	}
	if st.deadBm == nil {
		d := bitset.New(st.dom)
		for v, dead := range st.nav.Dead {
			if dead {
				d.Add(v)
			}
		}
		st.deadBm = d
	}
	bm.AndNot(st.deadBm)
}

// condBitmap returns (building lazily) the bitmap of nodes satisfying
// a unary EDB condition — the precomputed per-symbol label bitmaps and
// node-class bitmaps shared across all rules of a run. Tombstoned rows
// of a mutated arena never satisfy any condition: their columns still
// hold pre-removal values (so the column scans would admit them), and
// the alive mask subtracts them.
func (st *bitmapRun) condBitmap(u unaryCheck) *bitset.Set {
	if u.kind == uLabel {
		if bm := st.labelBm[u.labelIdx]; bm != nil {
			return bm
		}
		bm := bitset.New(st.dom)
		if sym := st.labelSyms[u.labelIdx]; sym >= 0 {
			bm.AddMatches32(st.nav.Label, sym)
		}
		st.aliveMask(bm)
		st.labelBm[u.labelIdx] = bm
		return bm
	}
	if bm := st.kindBm[u.kind]; bm != nil {
		return bm
	}
	bm := bitset.New(st.dom)
	nav := st.nav
	switch u.kind {
	case uRoot:
		bm.AddMatches32(nav.Parent, -1)
	case uLeaf:
		bm.AddMatches32(nav.FC, -1)
	case uLastSibling:
		for v, ns := range nav.NS {
			if ns == -1 && nav.Parent[v] != -1 {
				bm.Add(v)
			}
		}
	case uFirstSibling:
		for v, pr := range nav.Prev {
			if pr == -1 && nav.Parent[v] != -1 {
				bm.Add(v)
			}
		}
	case uDom:
		bm.Fill()
	}
	st.aliveMask(bm)
	st.kindBm[u.kind] = bm
	return bm
}

// holdsUnary is the scalar form of a unary EDB condition, read
// directly off the arena columns (identical to the linear engine's
// ground() tests).
func (st *bitmapRun) holdsUnary(u unaryCheck, w int) bool {
	nav := st.nav
	switch u.kind {
	case uLabel:
		return nav.Label[w] == st.labelSyms[u.labelIdx]
	case uRoot:
		return nav.Parent[w] == -1
	case uLeaf:
		return nav.FC[w] == -1
	case uLastSibling:
		return nav.NS[w] == -1 && nav.Parent[w] != -1
	case uFirstSibling:
		return nav.Prev[w] == -1 && nav.Parent[w] != -1
	case uDom:
		return true
	}
	return false
}

// col returns the gathered binding column of a slot, or nil for the
// anchor (whose binding is the node id itself).
func (st *bitmapRun) col(slot, anchor int) []int32 {
	if slot == anchor {
		return nil
	}
	if st.cols[slot] == nil {
		st.cols[slot] = make([]int32, st.dom)
	}
	return st.cols[slot]
}

// evalColumnar runs one rule's full bitmap pipeline over the whole
// domain, adding the new head facts to the extension and the worklist.
func (st *bitmapRun) evalColumnar(ri int) {
	st.columnarPasses++
	br := &st.bp.rules[ri]
	lr := br.lr
	if lr.headVar < 0 && st.props[lr.headID] {
		return // propositional head already derived
	}
	for _, pid := range lr.idbProp {
		if !st.props[pid] {
			return
		}
	}
	if lr.nvars == 0 {
		st.setProp(lr.headID)
		return
	}
	// A body IDB atom over an empty extension can never be satisfied;
	// skip the bulk pass (the worklist reaches the rule through the
	// predicate's first fact).
	for _, u := range lr.idbUnary {
		if !st.unary[u.pid].Any() {
			return
		}
	}
	live := st.live
	st.seedAnchor(br, live)
	if !live.Any() {
		return
	}
	for _, ps := range lr.steps {
		st.applyStep(br, live, ps)
		if !live.Any() {
			return
		}
	}
	for _, e := range lr.checks {
		st.applyCheck(live, e, lr.anchor)
		if !live.Any() {
			return
		}
	}
	if lr.headVar < 0 {
		st.setProp(lr.headID)
		return
	}
	// compileLinear anchors unary-headed rules at the head variable, so
	// live minus the current extension is the set of new head facts.
	head := st.unary[lr.headID]
	live.AndNot(head)
	head.Or(live)
	if len(st.bp.unaryDeps[lr.headID]) > 0 {
		pid := int32(lr.headID)
		live.ForEach(func(v int) { st.work = append(st.work, fact{pid, int32(v)}) })
	}
}

// seedAnchor initializes live to the set of anchors satisfying every
// condition on the anchor slot: copied from the cheapest available
// bitmap (an IDB extension, then a cached condition bitmap, then the
// full domain) and intersected with the rest by word-level ANDs.
func (st *bitmapRun) seedAnchor(br *bitmapRule, live *bitset.Set) {
	lr := br.lr
	idb := br.slotIDB[lr.anchor]
	conds := br.slotConds[lr.anchor]
	switch {
	case len(idb) > 0:
		live.CopyFrom(st.unary[idb[0].pid])
		idb = idb[1:]
	case len(conds) > 0:
		live.CopyFrom(st.condBitmap(conds[0]))
		conds = conds[1:]
	default:
		// Unconditioned anchor: every live node. Dead rows cannot anchor
		// a derivation (they carry no facts), so mask them out here; the
		// non-anchor slots are then reached along live columns only.
		live.Fill()
		st.aliveMask(live)
	}
	for _, u := range idb {
		live.And(st.unary[u.pid])
	}
	for _, u := range conds {
		live.And(st.condBitmap(u))
	}
}

// applyStep gathers one spanning-tree step: for every live anchor the
// newly bound slot's node id is computed from the already-bound source
// slot's column, and the bound slot's conditions are applied in the
// same sweep — anchors whose binding is undefined or fails a condition
// drop out of the live word, survivors land in the bound slot's
// column.
func (st *bitmapRun) applyStep(br *bitmapRule, live *bitset.Set, ps planStep) {
	lr := br.lr
	var srcSlot, dstSlot int
	if ps.forward {
		srcSlot, dstSlot = ps.edge.x, ps.edge.y
	} else {
		srcSlot, dstSlot = ps.edge.y, ps.edge.x
	}
	src := st.col(srcSlot, lr.anchor)
	dst := st.col(dstSlot, lr.anchor)
	nav := st.nav
	// Every non-anchor slot is bound by exactly one step, so the bound
	// slot's conditions are checked here, fused into the gather —
	// scalar against the arena columns and extension bitmaps, no
	// second pass over live.
	conds := br.slotConds[dstSlot]
	idbs := br.slotIDB[dstSlot]
	passes := func(y int) bool {
		for _, u := range conds {
			if !st.holdsUnary(u, y) {
				return false
			}
		}
		for _, u := range idbs {
			if !st.unary[u.pid].Has(y) {
				return false
			}
		}
		return true
	}

	// Steps that are plain arena-column reads use a direct gather; the
	// guarded inverses (firstchild⁻¹, lastchild⁻¹, child_k) go through
	// the shared edge functions.
	var col []int32
	if ps.forward {
		switch ps.edge.kind {
		case binFirstChild:
			col = nav.FC
		case binNextSibling:
			col = nav.NS
		case binLastChild:
			col = nav.LastChild
		}
	} else if ps.edge.kind == binNextSibling {
		col = nav.Prev
	}
	if col != nil {
		live.UpdateWords(func(base int, w uint64) uint64 {
			for m := w; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				v := base + b
				x := v
				if src != nil {
					x = int(src[v])
				}
				y := col[x]
				dst[v] = y
				if y < 0 || !passes(int(y)) {
					w &^= 1 << uint(b)
				}
			}
			return w
		})
		return
	}
	edge, fw := ps.edge, ps.forward
	live.UpdateWords(func(base int, w uint64) uint64 {
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := base + b
			x := v
			if src != nil {
				x = int(src[v])
			}
			var y int
			if fw {
				y = edge.forward(nav, x)
			} else {
				y = edge.backward(nav, x)
			}
			dst[v] = int32(y)
			if y < 0 || !passes(y) {
				w &^= 1 << uint(b)
			}
		}
		return w
	})
}

// applyCheck verifies a non-spanning-tree binary atom over the
// gathered columns, dropping anchors whose bindings fail it.
func (st *bitmapRun) applyCheck(live *bitset.Set, e binEdge, anchor int) {
	xcol := st.col(e.x, anchor)
	ycol := st.col(e.y, anchor)
	nav := st.nav
	live.UpdateWords(func(base int, w uint64) uint64 {
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := base + b
			x, y := v, v
			if xcol != nil {
				x = int(xcol[v])
			}
			if ycol != nil {
				y = int(ycol[v])
			}
			if e.forward(nav, x) != y {
				w &^= 1 << uint(b)
			}
		}
		return w
	})
}

// evalAnchor checks the full rule body for one anchor binding — the
// scalar mirror of the columnar pipeline, with IDB atoms tested
// against the current extension bitmaps.
func (st *bitmapRun) evalAnchor(lr *linearRule, anchorVal int) bool {
	st.anchorChecks++
	nav := st.nav
	binding := st.binding
	binding[lr.anchor] = anchorVal
	for _, s := range lr.steps {
		if s.forward {
			w := s.edge.forward(nav, binding[s.edge.x])
			if w == -1 {
				return false
			}
			binding[s.edge.y] = w
		} else {
			w := s.edge.backward(nav, binding[s.edge.y])
			if w == -1 {
				return false
			}
			binding[s.edge.x] = w
		}
	}
	for _, e := range lr.checks {
		if e.forward(nav, binding[e.x]) != binding[e.y] {
			return false
		}
	}
	for _, u := range lr.unary {
		if !st.holdsUnary(u, binding[u.v]) {
			return false
		}
	}
	for _, u := range lr.idbUnary {
		if !st.unary[u.pid].Has(binding[u.v]) {
			return false
		}
	}
	for _, pid := range lr.idbProp {
		if !st.props[pid] {
			return false
		}
	}
	return true
}

// RunTree is Run over a bare tree, building (or fetching from cache,
// when cache is non-nil) the navigation arrays.
func (bp *BitmapPlan) RunTree(t *tree.Tree, cache *TreeCache) (*datalog.Database, error) {
	if cache != nil {
		return bp.Run(cache.Nav(t))
	}
	return bp.Run(NewNav(t))
}

// BitmapTree evaluates a monadic datalog program on one tree with the
// bitmap engine, returning the intensional relations. Single-shot: it
// prepares the plan anew on every call; use NewBitmapPlan + Run to
// amortize preparation across documents.
func BitmapTree(p *datalog.Program, t *tree.Tree) (*datalog.Database, error) {
	bp, err := NewBitmapPlan(p)
	if err != nil {
		return nil, err
	}
	return bp.Run(NewNav(t))
}
