package eval

// The fused-plan path: one prepared Plan evaluates the union of many
// wrappers' programs (apex-renamed and deduplicated by opt.Fuse), and
// FusedPlan splits the single result database back into per-member
// visible relations. This is the evaluation side of QuerySet — the
// grounding, the Horn solve, and the result construction all happen
// once per document for the whole wrapper set.

import (
	"fmt"
	"slices"
	"time"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// FusedMember is one wrapper's slice of a fused plan: its display name
// and the mapping from the caller-facing predicate names to the
// apex-renamed predicates the fused program actually derives.
type FusedMember struct {
	// Name labels the member in results and diagnostics.
	Name string
	// Project maps each visible (caller-facing) predicate to its
	// predicate in the fused program.
	Project map[string]string
	// Subsumed marks a member the compile pipeline proved equivalent
	// to another member: none of its own rules survive in the fused
	// program and its results come purely from projecting the
	// representative's relations. Diagnostic — Split treats subsumed
	// members like any other.
	Subsumed bool
}

// FusedPlan is a Plan for a fused program plus the per-member
// projections that recover each wrapper's visible relations from the
// shared result. Immutable after NewFusedPlan; safe for concurrent
// use.
type FusedPlan struct {
	plan    *Plan
	bitmap  *BitmapPlan // non-nil iff engine == EngineBitmap
	engine  Engine
	members []FusedMember
}

// NewFusedPlan prepares the fused program for the bitmap engine (the
// serving default) and attaches the member projections.
func NewFusedPlan(p *datalog.Program, members []FusedMember) (*FusedPlan, error) {
	return NewFusedPlanEngine(p, members, EngineBitmap)
}

// NewFusedPlanEngine is NewFusedPlan with an explicit grounding
// engine for the shared pass: EngineLinear or EngineBitmap (the two
// engines that execute prepared Theorem 4.2 plans; anything else is
// rejected).
func NewFusedPlanEngine(p *datalog.Program, members []FusedMember, engine Engine) (*FusedPlan, error) {
	if engine != EngineLinear && engine != EngineBitmap {
		return nil, fmt.Errorf("eval: fused plans run on the linear or bitmap engine, not %v", engine)
	}
	pl, err := NewPlan(p)
	if err != nil {
		return nil, err
	}
	// The shared pass returns only what some member projects.
	visible := []string{}
	for _, m := range members {
		for _, fusedPred := range m.Project {
			visible = append(visible, fusedPred)
		}
	}
	slices.Sort(visible)
	pl = pl.Visible(slices.Compact(visible))
	f := &FusedPlan{plan: pl, engine: engine, members: members}
	if engine == EngineBitmap {
		f.bitmap = pl.Bitmap()
	}
	return f, nil
}

// Plan returns the underlying prepared plan (e.g. for its program).
func (f *FusedPlan) Plan() *Plan { return f.plan }

// Engine returns the engine the shared pass runs on.
func (f *FusedPlan) Engine() Engine { return f.engine }

// RunFull executes the fused plan once over nav and returns the
// shared (unsplit) result database, restricted to the relations some
// member projects — the memoizable unit; Split recovers the
// per-member views.
func (f *FusedPlan) RunFull(nav *Nav) (*datalog.Database, error) {
	if f.bitmap != nil {
		return f.bitmap.Run(nav)
	}
	return f.plan.Run(nav)
}

// NewIncState builds an incremental maintainer for the fused program
// over a (reusing the already-prepared bitmap plan when the shared
// pass runs on the bitmap engine). Split the maintained Database to
// recover per-member views.
func (f *FusedPlan) NewIncState(a *tree.Arena) *IncState {
	if f.bitmap != nil {
		return f.bitmap.NewIncState(a)
	}
	return f.plan.NewIncState(a)
}

// Members returns the number of fused members.
func (f *FusedPlan) Members() int { return len(f.members) }

// SubsumedMembers returns how many members are served purely by
// projection from an equivalent member's relations.
func (f *FusedPlan) SubsumedMembers() int {
	n := 0
	for _, m := range f.members {
		if m.Subsumed {
			n++
		}
	}
	return n
}

// MemberSubsumed reports whether member i is subsumed.
func (f *FusedPlan) MemberSubsumed(i int) bool {
	return i >= 0 && i < len(f.members) && f.members[i].Subsumed
}

// Run executes the fused plan once over nav and splits the result into
// one database per member, carrying the member's visible predicate
// names. The returned databases are freshly built and independent.
func (f *FusedPlan) Run(nav *Nav) ([]*datalog.Database, error) {
	full, err := f.RunFull(nav)
	if err != nil {
		return nil, err
	}
	return f.Split(full), nil
}

// Split projects an already-computed fused result database into the
// per-member visible databases (same order as the members given to
// NewFusedPlan). It is what makes memoizing the fused database safe:
// the memo stores the shared result once, and every later run re-slices
// it without re-evaluating.
func (f *FusedPlan) Split(full *datalog.Database) []*datalog.Database {
	out := make([]*datalog.Database, len(f.members))
	for i, m := range f.members {
		db := datalog.NewDatabase(full.Dom)
		for vis, fusedPred := range m.Project {
			r := full.RelOrNil(fusedPred)
			if r == nil {
				continue
			}
			switch r.Arity {
			case 1:
				db.Rel(vis, 1).AddUnarySet(full.UnarySet(fusedPred))
			case 0:
				if r.Len() > 0 {
					db.Rel(vis, 0).Add(nil)
				}
			}
		}
		out[i] = db
	}
	return out
}

// AttributeShared converts the cost of one shared fused pass into one
// member's attributed per-run stats: the timing fields are divided
// evenly across the n members (the pass is a joint product; an even
// split keeps per-wrapper rollups summing to the actual wall time),
// cache hits are carried through (a memoized shared pass served every
// member from cache), and the count fields (Runs, Facts, FusedRuns)
// are left for the caller to fill per member.
func AttributeShared(shared Stats, n int) Stats {
	if n <= 0 {
		n = 1
	}
	return Stats{
		Materialize: time.Duration(int64(shared.Materialize) / int64(n)),
		Eval:        time.Duration(int64(shared.Eval) / int64(n)),
		CacheHits:   shared.CacheHits,
		Engine:      shared.Engine,
	}
}
