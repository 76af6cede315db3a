package eval

import (
	"fmt"
	"slices"

	"mdlog/internal/datalog"
	"mdlog/internal/horn"
	"mdlog/internal/tree"
)

// Plan is a monadic datalog program prepared once for the linear-time
// engine of Theorem 4.2 and runnable against any number of documents:
// connected-rule splitting, atom numbering, and per-rule grounding
// plans are computed at construction; Run only grounds the plan over
// one tree and solves the resulting propositional Horn program.
//
// A Plan is immutable after NewPlan returns and safe for concurrent
// use by multiple goroutines.
type Plan struct {
	src   *datalog.Program
	split *datalog.Program
	rules []*linearRule

	// Atom numbering: unary IDB pred i at node v ↦ i*dom+v, then
	// propositional predicates in a trailing block.
	unaryID, propID       map[string]int
	unaryPreds, propPreds []string

	// outUnary / outProp index the relations Run returns (positions in
	// unaryPreds / propPreds): every intensional relation, unless
	// Visible narrowed the plan.
	outUnary, outProp []int

	// labels lists the distinct label_a labels the program tests;
	// unaryCheck.labelIdx indexes it. Run resolves each to the
	// document's interned symbol id once, so the per-node label test
	// is an integer compare against the tree's label column. The list
	// is interned exclusively during NewPlan (via planBuilder); after
	// construction nothing mutates it, which is what makes Run safe to
	// call from many goroutines without synchronization.
	labels   []string
	labelIDs map[string]int32
}

// planBuilder is the only handle through which a Plan may be mutated.
// It exists purely during NewPlan: once NewPlan returns, no code path
// can reach label interning (or any other write) on the Plan, so the
// "immutable after NewPlan" contract holds by construction rather than
// by convention.
type planBuilder struct{ pl *Plan }

// labelIdx interns a label into the plan's label list, returning the
// index of its single occurrence (each tested label is stored once,
// however many rules test it).
func (b planBuilder) labelIdx(label string) int32 {
	pl := b.pl
	if id, ok := pl.labelIDs[label]; ok {
		return id
	}
	id := int32(len(pl.labels))
	pl.labels = append(pl.labels, label)
	pl.labelIDs[label] = id
	return id
}

// NewPlan validates and prepares p for repeated linear-time
// evaluation. The returned Plan never mutates p.
func NewPlan(p *datalog.Program) (*Plan, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	if !p.IsMonadic() {
		return nil, fmt.Errorf("eval: program is not monadic")
	}
	pl := &Plan{
		src:      p,
		split:    SplitConnected(p),
		unaryID:  map[string]int{},
		propID:   map[string]int{},
		labelIDs: map[string]int32{},
	}
	idb := map[string]bool{}
	for _, r := range pl.split.Rules {
		idb[r.Head.Pred] = true
	}
	for _, r := range pl.split.Rules {
		pred := r.Head.Pred
		if len(r.Head.Args) == 1 {
			if _, ok := pl.unaryID[pred]; !ok {
				pl.unaryID[pred] = len(pl.unaryPreds)
				pl.unaryPreds = append(pl.unaryPreds, pred)
			}
		} else {
			if _, ok := pl.propID[pred]; !ok {
				pl.propID[pred] = len(pl.propPreds)
				pl.propPreds = append(pl.propPreds, pred)
			}
		}
	}
	for i := range pl.unaryPreds {
		pl.outUnary = append(pl.outUnary, i)
	}
	for i := range pl.propPreds {
		pl.outProp = append(pl.outProp, i)
	}
	// Predicates may appear in bodies as IDB without having rules; the
	// maps above cover all head predicates, which is sufficient: body
	// IDB atoms of unruled predicates can never hold, so rules
	// containing them can be skipped (compileLinear returns nil).
	b := planBuilder{pl: pl}
	for _, r := range pl.split.Rules {
		lr, err := b.compileLinear(r, idb)
		if err != nil {
			return nil, err
		}
		if lr != nil {
			pl.rules = append(pl.rules, lr)
		}
	}
	return pl, nil
}

// Visible returns a plan for the same program whose runs return only
// the named relations — exactly what Database.Project(preds) would
// keep of a full run, built without materializing the rest. Names the
// program does not derive are skipped, and a propositional relation
// appears only when true, as in a full run. A nil list returns pl
// itself; an empty one yields empty results.
func (pl *Plan) Visible(preds []string) *Plan {
	if preds == nil {
		return pl
	}
	v := *pl
	v.outUnary, v.outProp = []int{}, []int{}
	for _, pred := range preds {
		if id, ok := pl.unaryID[pred]; ok && !slices.Contains(v.outUnary, id) {
			v.outUnary = append(v.outUnary, id)
		} else if id, ok := pl.propID[pred]; ok && !slices.Contains(v.outProp, id) {
			v.outProp = append(v.outProp, id)
		}
	}
	return &v
}

// Program returns the source program the plan was built from.
func (pl *Plan) Program() *datalog.Program { return pl.src }

// QueryPred returns the program's distinguished query predicate.
func (pl *Plan) QueryPred() string { return pl.src.Query }

// Run grounds the plan over the tree behind nav and solves it,
// returning the visible intensional relations (the T_P^ω restriction
// computed by LinearTree). It allocates all mutable state locally and may be
// called concurrently.
func (pl *Plan) Run(nav *Nav) (*datalog.Database, error) {
	dom := nav.Dom()
	propBase := len(pl.unaryPreds) * dom

	// Resolve the program's label tests against this document's symbol
	// table once; absent labels resolve to -1, which matches no node.
	var labelSyms []int32
	if len(pl.labels) > 0 {
		labelSyms = make([]int32, len(pl.labels))
		for i, l := range pl.labels {
			labelSyms[i] = nav.LabelID(l)
		}
	}

	var solver horn.Solver
	binding := make([]int, 32)
	// bodyBuf backs every clause body: clauses are carved out of one
	// growing slice (the solver aliases them read-only), replacing one
	// allocation per grounded clause with amortized appends.
	var bodyBuf []int
	for _, lr := range pl.rules {
		if lr.nvars > len(binding) {
			binding = make([]int, lr.nvars)
		}
		ground := func(anchorVal int) {
			if lr.nvars > 0 {
				for i := 0; i < lr.nvars; i++ {
					binding[i] = -1
				}
				binding[lr.anchor] = anchorVal
				for _, st := range lr.steps {
					if st.forward {
						w := st.edge.forward(nav, binding[st.edge.x])
						if w == -1 {
							return
						}
						binding[st.edge.y] = w
					} else {
						w := st.edge.backward(nav, binding[st.edge.y])
						if w == -1 {
							return
						}
						binding[st.edge.x] = w
					}
				}
				for _, e := range lr.checks {
					if st := e.forward(nav, binding[e.x]); st != binding[e.y] {
						return
					}
				}
				for _, u := range lr.unary {
					w := binding[u.v]
					holds := false
					switch u.kind {
					case uLabel:
						holds = nav.Label[w] == labelSyms[u.labelIdx]
					case uRoot:
						holds = nav.Parent[w] == -1
					case uLeaf:
						holds = nav.FC[w] == -1
					case uLastSibling:
						holds = nav.NS[w] == -1 && nav.Parent[w] != -1
					case uFirstSibling:
						holds = nav.Prev[w] == -1 && nav.Parent[w] != -1
					case uDom:
						holds = true
					}
					if !holds {
						return
					}
				}
			}
			var head int
			if lr.headVar >= 0 {
				head = lr.headID*dom + binding[lr.headVar]
			} else {
				head = propBase + lr.headID
			}
			start := len(bodyBuf)
			for _, u := range lr.idbUnary {
				bodyBuf = append(bodyBuf, u.pid*dom+binding[u.v])
			}
			for _, pid := range lr.idbProp {
				bodyBuf = append(bodyBuf, propBase+pid)
			}
			solver.AddClause(head, bodyBuf[start:len(bodyBuf):len(bodyBuf)]...)
		}
		if lr.nvars == 0 {
			ground(0)
		} else if dead := nav.Dead; dead != nil {
			// Mutated arena: dead rows carry no facts and cannot anchor
			// a derivation. All non-anchor slots are reached from the
			// anchor along live columns, so this one skip suffices.
			for v := 0; v < dom; v++ {
				if !dead[v] {
					ground(v)
				}
			}
		} else {
			for v := 0; v < dom; v++ {
				ground(v)
			}
		}
	}

	truth := solver.Solve(propBase + len(pl.propPreds))
	out := datalog.NewDatabase(dom)
	var ids []int
	for _, pi := range pl.outUnary {
		ids = ids[:0]
		for v := 0; v < dom; v++ {
			if truth[pi*dom+v] {
				ids = append(ids, v)
			}
		}
		out.Rel(pl.unaryPreds[pi], 1).AddUnarySet(ids)
	}
	for _, pi := range pl.outProp {
		if truth[propBase+pi] {
			out.Rel(pl.propPreds[pi], 0).Add(nil)
		}
	}
	return out, nil
}

// RunTree is Run over a bare tree, building (or fetching from cache,
// when cache is non-nil) the navigation arrays.
func (pl *Plan) RunTree(t *tree.Tree, cache *TreeCache) (*datalog.Database, error) {
	if cache != nil {
		return pl.Run(cache.Nav(t))
	}
	return pl.Run(NewNav(t))
}
