package eval

// Incremental maintenance of the least model under live-document
// edits. An arena mutation (tree.InsertSubtree / RemoveSubtree)
// changes the τ_ur EDB in a precisely bounded way: every added,
// removed, or relinked row is named by the recorded ArenaDelta, and a
// τ_ur fact can appear or disappear only at a node whose row changed —
// firstchild, nextsibling, lastchild, child_k are all stored (or
// derived) per-row, and the node-class predicates (root, leaf,
// lastsibling, firstsibling) read only a node's own row. Text and
// attribute edits are invisible here: they are outside the τ_ur
// signature, so no fact changes.
//
// IncState exploits that bound with a support-aware variant of
// delete-rederive — the Backward/Forward check of Motik, Nenov, Piro
// and Horrocks (AAAI 2015) — on top of the bitmap engine's worklist:
//
//  1. Delete. A fact becomes a deletion candidate when one of its
//     derivations under the OLD structure used a changed EDB fact or
//     a deleted fact: walk from every affected row, and later from
//     every deleted fact, backwards to the unique candidate anchor of
//     each rule slot (the spanning-tree steps are injective partial
//     functions, Proposition 4.1 — so the walk is exact, not a
//     search) and check the rule body under the old edges and the
//     pre-edit extensions. Before a candidate is deleted, the support
//     check tries to prove it again under the NEW structure; only a
//     candidate it cannot prove is deleted and propagates further.
//     Deleting every candidate would, on τ_ur's
//     firstchild·nextsibling* chains, delete every later row's
//     subtree facts when one table row is removed; the check
//     re-proves the next row through its new previous sibling, so the
//     deletions stop at the edit frontier.
//  2. Rederive, under the NEW structure: check every candidate anchor
//     reachable from an affected node and the anchor of every deleted
//     fact, push what holds onto the bitmap engine's worklist and
//     drain it (bitmapRun.fixpoint). A missing fact's derivation uses
//     a changed EDB fact (seeded from the affected rows), a rederived
//     IDB fact (reached by the worklist), or neither — then it held
//     before the edit and the fact was deleted (seeded at its own
//     anchor) — so the loop reaches exactly the least model of the new
//     document, the same T_P^ω a from-scratch evaluation computes.
//
// The support check. A fact's candidate derivations under the new
// structure are one rule instance per rule for its predicate, anchored
// at the fact's node, so binding one is a lookup. The check chains
// backwards through those instances' body facts with an explicit
// stack, exploring each fact at most once per window (the checked
// set), and bottoms out at new-structure EDB facts: a fact joins the
// proved set only when some instance's EDB atoms hold in the new
// structure and every IDB body fact is already proved. Each newly
// proved fact re-checks the checked facts it can help justify (the
// forward half), so a checked fact whose body facts all get proved is
// proved too, in whatever order they were explored. Proved facts are
// true in the new model whatever that order: a cycle of facts that
// only support each other is never proved unless some member has a
// derivation grounded outside the cycle. Exploration follows facts of
// the old model and facts at rows the window inserted; on an
// insertion the next row is re-proved through the inserted row's own
// facts, which the old model cannot hold. A fact the check misses
// costs a deletion and a rederivation, never a wrong answer. The
// deletions stop at the edit frontier but the exploration need not:
// a proof bottoms out at EDB facts, so re-proving a descendant fact
// walks back along its sibling chain and up to the root, each fact
// at most once per window.
//
// Crossover. A window whose deletions pass a fifth of the maintained
// facts is abandoned and re-solved from scratch: about there, on the
// measured workload (see crossoverDiv), maintenance starts to cost
// more than a full run.
//
// DESIGN.md § Incremental maintenance gives the arguments in full.
//
// Programs whose connected-rule split introduced propositional helper
// predicates fall back to full re-evaluation per generation: a helper
// flip can enable or disable rule instances at every node at once, so
// there is no local frontier to seed from. The fallback is still
// generation-correct — only the delta-locality optimization is lost.

import (
	"fmt"

	"mdlog/internal/bitset"
	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// A window whose deletions exceed 1/crossoverDiv of the maintained
// facts is re-solved from scratch. The fraction is measured: on the
// 1,100-row product listing under the ten-wrapper fused fleet (171,855
// maintained facts), removing 100 rows in one window (9% of the facts
// deleted) costs about half a fresh solve, 190–280 rows (17–25%) about
// one, and 400 rows (36%) 1.1–1.4 of one. crossoverMin is a floor, not
// a measurement: it keeps small models, where both paths take
// microseconds, on the incremental path.
const (
	crossoverDiv = 5
	crossoverMin = 1024
)

// IncState maintains the intensional relations of one program over one
// live document across arena mutations. It is built at some generation
// by a full evaluation, then advanced by Apply with the ArenaDelta of
// each edit batch; Database returns the current least model without
// re-running the program over the whole document.
//
// An IncState is single-writer: Apply and Database must be serialized
// by the caller (the mdlog.Document wrapper provides that), matching
// the arena's own mutation contract.
type IncState struct {
	bp    *BitmapPlan
	arena *tree.Arena
	gen   uint64
	dom   int

	// fallback marks programs outside the delta-maintainable fragment
	// (their connected-rule split has propositional helpers); Database
	// then re-runs the full engine per generation — never stale, just
	// not delta-local.
	fallback bool

	// unary[pid] is the maintained extension of each unary IDB
	// predicate at generation gen.
	unary []*bitset.Set

	// childK records whether some rule uses child_k, whose facts change
	// when a sibling shift renumbers a row's child index.
	childK bool

	// headRules[pid] lists the rules deriving a unary predicate — the
	// rules that may restore one of its deleted facts.
	headRules [][]int

	// run is the persistent scratch state the rederivation fixpoint
	// executes in; its unary slice aliases the maintained extensions.
	run *bitmapRun

	// Per-window state, cleared and reused by every Apply: the facts
	// queued as deletion candidates, explored by the support check,
	// proved by it, and deleted; the old rows the window removed; and
	// the work stacks.
	cand, checked, proved, deleted factSet
	removed                        *bitset.Set
	queue, goals, sat              []fact
	frames                         []proofFrame
	aff                            []int

	// proofChecks counts the rule instances the support check bound in
	// the last Apply (each checked fact binds one per rule for its
	// predicate, each proved fact wakes one per body occurrence) —
	// the work unit the tests pin.
	proofChecks int

	stats IncStats
}

// IncStats counts the work an IncState has done, for diagnostics and
// the service layer's session stats.
type IncStats struct {
	// Applies counts the structural delta windows applied; windows
	// that only retext or reattribute change no fact and count
	// nowhere. Fallbacks counts the applied windows that were
	// re-solved from scratch: every window of a program outside the
	// delta-maintainable fragment, and every window whose deletions
	// passed the crossover.
	Applies, Fallbacks int
	// Overdeleted counts the facts the delete phase actually deleted:
	// the facts of removed rows and the candidates the support check
	// could not prove. Reproved counts the candidates it proved and so
	// kept. Rederived counts the deleted facts the rederive phase
	// restored — deletions the check missed. A window that falls back
	// adds to none of the three.
	Overdeleted, Reproved, Rederived int
}

// Add accumulates o into s.
func (s *IncStats) Add(o IncStats) {
	s.Applies += o.Applies
	s.Fallbacks += o.Fallbacks
	s.Overdeleted += o.Overdeleted
	s.Reproved += o.Reproved
	s.Rederived += o.Rederived
}

// factSet is a set of unary (predicate, node) facts: one bitset per
// predicate, allocated on first use and kept across windows.
type factSet []*bitset.Set

func (fs factSet) has(f fact) bool {
	b := fs[f.pid]
	return b != nil && b.Has(int(f.v))
}

// add inserts f into a domain of dom nodes, reporting whether it was
// new.
func (fs factSet) add(f fact, dom int) bool {
	b := fs[f.pid]
	if b == nil {
		b = bitset.New(dom)
		fs[f.pid] = b
	} else if b.Has(int(f.v)) {
		return false
	}
	b.Add(int(f.v))
	return true
}

// reset empties the set and widens it to dom nodes.
func (fs factSet) reset(dom int) {
	for _, b := range fs {
		if b != nil {
			b.Grow(dom)
			b.Clear()
		}
	}
}

// proofFrame is one fact on the support check's stack: rule is the
// next index into headRules to try, and goals[base:end] are the body
// IDB facts of the rule instance being explored, next the first not
// yet explored.
type proofFrame struct {
	f                     fact
	rule, base, next, end int
}

// NewIncState builds incremental maintenance state for the plan over
// the document behind a, at the arena's current generation, by one
// full evaluation.
func (bp *BitmapPlan) NewIncState(a *tree.Arena) *IncState {
	return newIncState(bp, a)
}

func newIncState(bp *BitmapPlan, a *tree.Arena) *IncState {
	s := &IncState{bp: bp, arena: a, gen: a.Gen(), dom: a.Len()}
	pl := bp.pl
	if len(pl.propPreds) > 0 {
		s.fallback = true
		return s
	}
	// With no propositional predicates every rule is anchored at its
	// head variable (nvars ≥ 1) and has no propositional body atoms.
	n := len(pl.unaryPreds)
	s.headRules = make([][]int, n)
	for ri, br := range bp.rules {
		s.headRules[br.lr.headID] = append(s.headRules[br.lr.headID], ri)
		for _, st := range br.lr.steps {
			s.childK = s.childK || st.edge.kind == binChildK
		}
		for _, e := range br.lr.checks {
			s.childK = s.childK || e.kind == binChildK
		}
	}
	s.unary = make([]*bitset.Set, n)
	for i := range s.unary {
		s.unary[i] = bitset.New(s.dom)
	}
	s.cand, s.checked, s.proved, s.deleted = make(factSet, n), make(factSet, n), make(factSet, n), make(factSet, n)
	s.removed = bitset.New(s.dom)
	// Full initial evaluation, retaining the extension bitmaps.
	s.freshRun().solve()
	return s
}

// Gen returns the arena generation the maintained extensions are
// current for.
func (s *IncState) Gen() uint64 { return s.gen }

// Fallback reports whether the program is maintained by full
// re-evaluation per generation rather than delta propagation.
func (s *IncState) Fallback() bool { return s.fallback }

// Stats returns the cumulative maintenance counters.
func (s *IncState) Stats() IncStats { return s.stats }

// freshRun readies the persistent scratch run state for the arena's
// current width: grows the maintained extensions, re-resolves labels,
// and invalidates the per-document condition bitmaps (the previous
// generation's are stale).
func (s *IncState) freshRun() *bitmapRun {
	dom := s.arena.Len()
	st := s.run
	if st == nil {
		st = s.bp.newRun(dom)
		st.unary = s.unary
		s.run = st
	}
	st.dom = dom
	for _, u := range s.unary {
		u.Grow(dom)
	}
	st.live.Grow(dom)
	for i, c := range st.cols {
		if c != nil && len(c) < dom {
			st.cols[i] = nil
		}
	}
	st.resetDoc(NavOf(s.arena))
	st.anchorChecks, st.columnarPasses = 0, 0
	return st
}

// Apply advances the maintained extensions across one delta window
// (one edit or a ComposeDeltas batch). The window must start exactly
// where the state left off; mdlog.Document tracks that bookkeeping.
func (s *IncState) Apply(d *tree.ArenaDelta) error {
	if d == nil || (d.Empty() && d.Gen <= s.gen) {
		return nil
	}
	if d.OldLen != s.dom {
		return fmt.Errorf("eval: delta window [%d → %d] does not start at the maintained domain %d", d.OldLen, d.NewLen, s.dom)
	}
	if len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Touched) == 0 {
		// Text/attr-only window: outside the τ_ur signature, no EDB
		// fact changed, so the model is untouched.
		s.dom, s.gen = d.NewLen, d.Gen
		return nil
	}
	s.stats.Applies++
	if s.fallback {
		s.stats.Fallbacks++
		s.dom, s.gen = d.NewLen, d.Gen
		return nil
	}
	bp := s.bp

	// Ready the scratch state first: it grows the maintained bitmaps to
	// the new width (the delete phase touches old ids only, but the
	// support check and rederive need the full width) and re-resolves
	// the label symbols.
	st := s.freshRun()
	s.proofChecks = 0
	for _, fs := range []factSet{s.cand, s.checked, s.proved, s.deleted} {
		fs.reset(st.dom)
	}
	s.removed.Grow(d.OldLen)
	s.removed.Clear()
	for _, v := range d.Removed {
		if int(v) < d.OldLen {
			s.removed.Add(int(v))
		}
	}
	o := &oldView{nav: st.nav, d: d, oldLen: d.OldLen, removed: s.removed}

	// --- Pass 1: support-aware deletion. ----------------------------
	// Affected old rows: every row that changed or disappeared. Every
	// EDB fact that changed has an argument node among them: the row
	// whose column defines it. A row whose only change is its child
	// index (a sibling shifted it) changed only child_k facts, so
	// without child_k atoms it is not affected.
	aff := s.aff[:0]
	for _, tn := range d.Touched {
		if s.childK || o.moved(tn) {
			aff = append(aff, int(tn.ID))
		}
	}
	for _, v := range d.Removed {
		if int(v) < d.OldLen {
			aff = append(aff, int(v))
		}
	}
	for ri := range bp.rules {
		for _, path := range bp.rules[ri].slotPaths {
			for _, u := range aff {
				s.candidate(o, st, ri, path, u)
			}
		}
	}
	// The crossover limit is sized only once the deletions pass
	// crossoverMin: counting the maintained facts is a pass over every
	// extension, which small windows should not pay.
	deleted, reproved, limit, sized := 0, 0, crossoverMin, false
	for len(s.queue) > 0 {
		f := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if s.prove(st, f) {
			reproved++
			continue
		}
		s.deleted.add(f, st.dom)
		if deleted++; deleted > limit && !sized {
			sized = true
			maintained := 0
			for _, u := range s.unary {
				maintained += u.Count()
			}
			limit = max(maintained/crossoverDiv, crossoverMin)
		}
		if deleted > limit {
			s.resolve(st, d)
			return nil
		}
		for _, oc := range bp.unaryDeps[f.pid] {
			s.candidate(o, st, oc.rule, bp.rules[oc.rule].slotPaths[oc.slot], int(f.v))
		}
	}
	for pid, b := range s.deleted {
		if b != nil {
			s.unary[pid].AndNot(b)
		}
	}
	// Removed rows lose all facts outright (their every derivation was
	// anchored at a now-dead node, so they are all deleted already —
	// this is the cheap belt over suspenders).
	for _, v := range d.Removed {
		if int(v) < d.OldLen {
			for _, u := range s.unary {
				u.Remove(int(v))
			}
		}
	}
	s.stats.Overdeleted += deleted
	s.stats.Reproved += reproved

	// --- Pass 2: rederive under the NEW structure. ------------------
	// A fact of the new model that is missing now has a derivation
	// that (i) uses a changed EDB fact, whose nodes are affected rows:
	// seed every slot of every rule from them; or (ii) uses a
	// rederived or new IDB fact: the worklist reaches it when that
	// fact is pushed; or (iii) uses neither, so the same rule instance
	// held before the edit and the fact was deleted: seed each deleted
	// fact's own anchor with the rules for its predicate. Draining the
	// worklist after each such seed lets a rederived chain restore its
	// tail before the tail's own seeds come up, so those skip the body
	// check.
	for _, v := range d.Added {
		aff = append(aff, int(v))
	}
	for _, v := range d.Removed {
		if int(v) >= d.OldLen {
			aff = append(aff, int(v))
		}
	}
	s.aff = aff
	for ri := range bp.rules {
		for _, path := range bp.rules[ri].slotPaths {
			for _, u := range aff {
				st.tryAnchor(ri, path, u)
			}
		}
	}
	st.fixpoint()
	for pid, b := range s.deleted {
		if b != nil {
			b.ForEach(func(v int) {
				for _, ri := range s.headRules[pid] {
					st.tryAnchor(ri, nil, v)
				}
				st.fixpoint()
			})
		}
	}
	for pid, b := range s.deleted {
		if b != nil {
			b.ForEach(func(v int) {
				if s.unary[pid].Has(v) {
					s.stats.Rederived++
				}
			})
		}
	}
	s.dom, s.gen = d.NewLen, d.Gen
	return nil
}

// resolve abandons a window past the crossover: the maintained
// extensions are recomputed from scratch over the new structure.
func (s *IncState) resolve(st *bitmapRun, d *tree.ArenaDelta) {
	s.queue = s.queue[:0]
	for _, u := range s.unary {
		u.Clear()
	}
	st.solve()
	s.stats.Fallbacks++
	s.dom, s.gen = d.NewLen, d.Gen
}

// candidate queues the head fact of rule ri at the anchor the inverse
// path names from u under the old structure, when that fact is in the
// old model and the rule instance there held before the window — a
// derivation that may have used the changed or deleted fact at u.
func (s *IncState) candidate(o *oldView, st *bitmapRun, ri int, path []invStep, u int) {
	lr := s.bp.rules[ri].lr
	w := o.walkInv(path, u)
	if w < 0 || !o.exists(w) || !s.unary[lr.headID].Has(w) {
		return
	}
	f := fact{int32(lr.headID), int32(w)}
	if s.cand.has(f) || !s.oldBody(o, lr, st, w) {
		return
	}
	s.cand.add(f, st.dom)
	s.queue = append(s.queue, f)
}

// prove is the support check: whether root holds in the new model, by
// backward chaining from root through rule instances under the new
// structure. It explores each fact at most once per window, so a fact
// found unprovable stays so for the window unless the forward half
// (markProved) proves it later.
func (s *IncState) prove(st *bitmapRun, root fact) bool {
	s.open(st, root)
	for len(s.frames) > 0 {
		fr := &s.frames[len(s.frames)-1]
		if s.proved.has(fr.f) {
			s.pop()
			continue
		}
		if fr.next < fr.end {
			g := s.goals[fr.next]
			fr.next++
			s.open(st, g) // may grow s.frames: fr is stale from here
			continue
		}
		if fr.end > fr.base && s.allProved(s.goals[fr.base:fr.end]) {
			s.markProved(st, fr.f)
			continue
		}
		// Bind the next rule instance whose EDB atoms hold in the new
		// structure; its body IDB facts become the goals to explore.
		s.goals = s.goals[:fr.base]
		fr.next, fr.end = fr.base, fr.base
		rules := s.headRules[fr.f.pid]
		for fr.rule < len(rules) {
			lr := s.bp.rules[rules[fr.rule]].lr
			fr.rule++
			if !s.bindNew(st, lr, int(fr.f.v)) {
				continue
			}
			if len(lr.idbUnary) == 0 {
				s.markProved(st, fr.f)
				break
			}
			for _, u := range lr.idbUnary {
				s.goals = append(s.goals, fact{int32(u.pid), int32(st.binding[u.v])})
			}
			fr.end = len(s.goals)
			break
		}
		if fr.end == fr.base && !s.proved.has(fr.f) {
			s.pop() // no rule instance left: unproved
		}
	}
	return s.proved.has(root)
}

// open marks f checked and, the first time, pushes it for exploration
// — if it can be explored: facts at dead rows never hold, and at an
// old row only facts of the old model are followed (a newly true fact
// there is left to the rederive phase).
func (s *IncState) open(st *bitmapRun, f fact) {
	if !s.checked.add(f, st.dom) {
		return
	}
	v := int(f.v)
	if !st.nav.Alive(v) || (v < s.dom && !s.unary[f.pid].Has(v)) {
		return
	}
	n := len(s.goals)
	s.frames = append(s.frames, proofFrame{f: f, base: n, next: n, end: n})
}

// pop drops the top frame and its goals.
func (s *IncState) pop() {
	top := len(s.frames) - 1
	s.goals = s.goals[:s.frames[top].base]
	s.frames = s.frames[:top]
}

func (s *IncState) allProved(goals []fact) bool {
	for _, g := range goals {
		if !s.proved.has(g) {
			return false
		}
	}
	return true
}

// bindNew binds one rule instance at v under the new structure and
// checks its EDB atoms (the bindings stay in st.binding).
func (s *IncState) bindNew(st *bitmapRun, lr *linearRule, v int) bool {
	s.proofChecks++
	return st.bindEDB(lr, v)
}

// markProved adds f to the proved set and runs the forward half of the
// check to fixpoint: every checked, unproved fact whose rule instance
// now has all its body facts proved is proved in turn.
func (s *IncState) markProved(st *bitmapRun, f fact) {
	bp := s.bp
	s.proved.add(f, st.dom)
	s.sat = append(s.sat[:0], f)
	for len(s.sat) > 0 {
		g := s.sat[len(s.sat)-1]
		s.sat = s.sat[:len(s.sat)-1]
		for _, oc := range bp.unaryDeps[g.pid] {
			br := &bp.rules[oc.rule]
			a := walkInv(st.nav, br.slotPaths[oc.slot], int(g.v))
			if a < 0 || !st.nav.Alive(a) {
				continue
			}
			h := fact{int32(br.lr.headID), int32(a)}
			if !s.checked.has(h) || s.proved.has(h) || !s.bindNew(st, br.lr, a) {
				continue
			}
			ok := true
			for _, u := range br.lr.idbUnary {
				if !s.proved.has(fact{int32(u.pid), int32(st.binding[u.v])}) {
					ok = false
					break
				}
			}
			if ok {
				s.proved.add(h, st.dom)
				s.sat = append(s.sat, h)
			}
		}
	}
}

// Database returns the intensional relations at the arena's current
// generation — the result of the maintained model, or a full run in
// fallback mode. It errors when Apply has not caught up with the
// arena (the caller skipped a delta).
func (s *IncState) Database() (*datalog.Database, error) {
	if g := s.arena.Gen(); g != s.gen {
		return nil, fmt.Errorf("eval: incremental state at generation %d is behind the arena (generation %d); apply the missing deltas first", s.gen, g)
	}
	if s.fallback {
		return s.bp.Run(NavOf(s.arena))
	}
	return materialize(s.bp.pl, s.unary, nil, s.dom), nil
}

// oldView reconstructs the pre-edit structure of one delta window on
// top of the post-edit arena columns: dead rows keep their pre-removal
// columns verbatim, and every surviving row whose columns changed has
// its old row snapshotted in the delta (first write wins, so composed
// windows see the values from before the whole window).
type oldView struct {
	nav    *Nav
	d      *tree.ArenaDelta
	oldLen int
	// removed marks the old rows the window tombstoned.
	removed *bitset.Set
}

// moved reports whether a touched row's navigation columns differ
// from their pre-window values in more than the child index.
func (o *oldView) moved(tn tree.TouchedNode) bool {
	v, nav := tn.ID, o.nav
	return tn.OldParent != nav.Parent[v] || tn.OldFirstChild != nav.FC[v] ||
		tn.OldNextSibling != nav.NS[v] || tn.OldPrevSibling != nav.Prev[v] ||
		tn.OldLastChild != nav.LastChild[v]
}

// exists reports whether v was a live node before the window: inside
// the old width and either still alive or removed by this window.
// (Rows dead before the window are not in removed, so they stay dead.)
func (o *oldView) exists(v int) bool {
	return v >= 0 && v < o.oldLen && (o.nav.Alive(v) || o.removed.Has(v))
}

func (o *oldView) parent(v int) int {
	if t, ok := o.d.OldOf(int32(v)); ok {
		return int(t.OldParent)
	}
	return int(o.nav.Parent[v])
}

func (o *oldView) fc(v int) int {
	if t, ok := o.d.OldOf(int32(v)); ok {
		return int(t.OldFirstChild)
	}
	return int(o.nav.FC[v])
}

func (o *oldView) ns(v int) int {
	if t, ok := o.d.OldOf(int32(v)); ok {
		return int(t.OldNextSibling)
	}
	return int(o.nav.NS[v])
}

func (o *oldView) prev(v int) int {
	if t, ok := o.d.OldOf(int32(v)); ok {
		return int(t.OldPrevSibling)
	}
	return int(o.nav.Prev[v])
}

func (o *oldView) lastChild(v int) int {
	if t, ok := o.d.OldOf(int32(v)); ok {
		return int(t.OldLastChild)
	}
	return int(o.nav.LastChild[v])
}

func (o *oldView) childIdx(v int) int {
	if t, ok := o.d.OldOf(int32(v)); ok {
		return int(t.OldChildIdx)
	}
	return int(o.nav.ChildIdx[v])
}

// edgeForward is binEdge.forward under the old structure.
func (o *oldView) edgeForward(e binEdge, v int) int {
	switch e.kind {
	case binFirstChild:
		return o.fc(v)
	case binNextSibling:
		return o.ns(v)
	case binLastChild:
		return o.lastChild(v)
	case binChildK:
		if e.k < 1 {
			return -1
		}
		c := o.fc(v)
		for i := 1; i < e.k && c >= 0; i++ {
			c = o.ns(c)
		}
		return c
	}
	return -1
}

// edgeBackward is binEdge.backward under the old structure.
func (o *oldView) edgeBackward(e binEdge, v int) int {
	switch e.kind {
	case binFirstChild:
		if o.prev(v) == -1 {
			return o.parent(v)
		}
	case binNextSibling:
		return o.prev(v)
	case binLastChild:
		if o.ns(v) == -1 {
			return o.parent(v)
		}
	case binChildK:
		if o.childIdx(v) == e.k-1 {
			return o.parent(v)
		}
	}
	return -1
}

// walkInv follows an inverse spanning-tree path under the old
// structure, returning the candidate anchor or -1.
func (o *oldView) walkInv(path []invStep, v int) int {
	for _, is := range path {
		if is.forward {
			v = o.edgeBackward(is.edge, v)
		} else {
			v = o.edgeForward(is.edge, v)
		}
		if v < 0 {
			return -1
		}
	}
	return v
}

// oldBody checks a full rule body at one anchor under the old
// structure and the pre-deletion extensions — the overdelete mirror of
// bitmapRun.evalAnchor. (Propositional atoms cannot occur: programs
// with them take the fallback path.)
func (s *IncState) oldBody(o *oldView, lr *linearRule, st *bitmapRun, anchorVal int) bool {
	binding := st.binding
	binding[lr.anchor] = anchorVal
	for _, ps := range lr.steps {
		if ps.forward {
			w := o.edgeForward(ps.edge, binding[ps.edge.x])
			if w == -1 {
				return false
			}
			binding[ps.edge.y] = w
		} else {
			w := o.edgeBackward(ps.edge, binding[ps.edge.y])
			if w == -1 {
				return false
			}
			binding[ps.edge.x] = w
		}
	}
	for _, e := range lr.checks {
		if o.edgeForward(e, binding[e.x]) != binding[e.y] {
			return false
		}
	}
	for _, u := range lr.unary {
		w := binding[u.v]
		holds := false
		switch u.kind {
		case uLabel:
			holds = o.nav.Label[w] == st.labelSyms[u.labelIdx]
		case uRoot:
			holds = o.parent(w) == -1
		case uLeaf:
			holds = o.fc(w) == -1
		case uLastSibling:
			holds = o.ns(w) == -1 && o.parent(w) != -1
		case uFirstSibling:
			holds = o.prev(w) == -1 && o.parent(w) != -1
		case uDom:
			holds = true
		}
		if !holds {
			return false
		}
	}
	for _, u := range lr.idbUnary {
		if !s.unary[u.pid].Has(binding[u.v]) {
			return false
		}
	}
	return true
}
