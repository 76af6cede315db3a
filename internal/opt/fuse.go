package opt

// Program fusion for QuerySet: N post-optimization member programs —
// any of them the compiled form of a different source language —
// become ONE program that a single engine pass evaluates per
// document, after which each member's visible relations are projected
// back out.
//
// Soundness rests on two facts (see DESIGN.md §QuerySet):
//
//  1. Apex renaming. Every predicate a member defines (and every
//     non-extensional predicate it merely mentions) is prefixed with a
//     member-unique apex tag, so the fused program is a union of
//     programs with pairwise disjoint intensional vocabularies over a
//     shared extensional vocabulary. The least model of such a union
//     is the union of the members' least models: the immediate
//     consequence operator of the union decomposes into the members'
//     operators, which cannot interact through disjoint predicates.
//
//  2. Shared-auxiliary deduplication. Two intensional predicates whose
//     complete defining rule sets are identical — up to variable
//     renaming, body-atom order, self-reference, and the merges
//     already performed — have identical extensions in every least
//     model (induction on fixpoint stages), so the duplicate may be
//     replaced by its representative everywhere. This is what makes
//     fusion pay: the tm_*/conn_* chains that every translation emits
//     for shared document structure are evaluated once for the whole
//     set instead of once per wrapper.

import (
	"sort"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
)

// FuseMember is one program entering a fused evaluation unit.
type FuseMember struct {
	// Prefix is the member's apex tag (e.g. "s3__"); it must be unique
	// within the fused set and not a prefix of another member's tag.
	Prefix string
	// Program is the member's post-optimization program. It is never
	// mutated.
	Program *datalog.Program
	// Visible are the predicates whose extensions the caller observes
	// for this member; they are protected from deduplication (their
	// prefixed names survive into the fused program, as
	// Prefix+pred), while everything else is fair game for merging.
	Visible []string
}

// FuseReport describes what one Fuse call did.
type FuseReport struct {
	// Members is the number of fused programs.
	Members int
	// RulesIn is the total rule count across all members; RulesOut is
	// the fused program's rule count after deduplication.
	RulesIn, RulesOut int
	// MergedPreds counts auxiliary predicates replaced by an
	// equivalent representative from another (or the same) member.
	MergedPreds int
	// MergedRules counts rules dropped because merging made them
	// duplicates of a surviving rule.
	MergedRules int
	// CSEPreds counts shared auxiliary predicates the common-
	// subexpression pass extracted; CSERefs counts the body fragment
	// occurrences it rewrote to use them.
	CSEPreds, CSERefs int
	// SubsumeChecked counts visible predicates the containment checker
	// fingerprinted during subsumption; SubsumedPreds counts those
	// proven equivalent to (and merged into) a representative;
	// SubsumeUnknown counts those the checker declined (recursive or
	// over budget — they fall back to evaluation, never to a guess).
	SubsumeChecked, SubsumedPreds, SubsumeUnknown int
	// CheckNs is wall time spent in the containment checker.
	CheckNs int64
}

// FuseOptions selects which structure-sharing passes FuseWith runs on
// top of baseline apex-rename + α-equivalent dedup.
type FuseOptions struct {
	// CSE extracts common connected rule-body fragments that recur
	// across members into shared auxiliary predicates, so near-
	// duplicate wrappers share ground work even when no complete
	// predicate definition coincides.
	CSE bool
	// Subsume runs the containment checker over the visible
	// predicates and merges those proven semantically equivalent, so a
	// wrapper answerable from another's relation costs zero evaluation.
	Subsume bool
	// Contain tunes the subsumption pass's checker (nil: defaults).
	Contain *ContainOptions
}

// DefaultFuseOptions is what Fuse uses: all passes on.
var DefaultFuseOptions = FuseOptions{CSE: true, Subsume: true}

// Fuse apex-renames each member's program and unions them into one,
// then merges predicates whose definitions coincide across members.
// Each member's visible predicate v appears in the result as
// member.Prefix+v — unless fusion merged it into an equivalent
// predicate, in which case aliases[member.Prefix+v] names the
// surviving predicate carrying the extension (reading that relation
// under the visible name costs nothing per document, whereas keeping
// an alias RULE would ground one clause per node). The fused program
// has no distinguished query predicate.
func Fuse(members []FuseMember) (*datalog.Program, map[string]string, FuseReport) {
	return FuseWith(members, DefaultFuseOptions)
}

// FuseWith is Fuse with explicit pass selection. The pipeline is
//
//	apex-rename ∪ → dedup → (CSE → dedup)* → subsume → dedup
//
// where dedup is the α-equivalent definition merge, CSE repeats until
// it stops extracting (each extraction can expose new whole-definition
// collisions, and each merge can make further fragments coincide), and
// subsume is the containment-checker pass over visible predicates.
// Alias maps from successive passes are composed, so the returned map
// always points at surviving predicates.
func FuseWith(members []FuseMember, o FuseOptions) (*datalog.Program, map[string]string, FuseReport) {
	rep := FuseReport{Members: len(members)}
	fused := &datalog.Program{}
	protected := map[string]bool{}
	for _, m := range members {
		rep.RulesIn += len(m.Program.Rules)
		renamed := apexRename(m.Program, m.Prefix)
		fused.Rules = append(fused.Rules, renamed.Rules...)
		for _, v := range m.Visible {
			protected[m.Prefix+v] = true
		}
		if m.Program.Query != "" {
			protected[m.Prefix+m.Program.Query] = true
		}
	}
	aliases := dedupShared(fused, protected, &rep)
	if o.CSE {
		cseCounter := 0
		// The bound is a backstop; extraction normally converges in two
		// or three rounds (fragments are strictly consumed by aux
		// predicates, which are then fair game for whole-def dedup).
		for round := 0; round < 8; round++ {
			if !cseShared(fused, &cseCounter, &rep) {
				break
			}
			aliases = composeAliases(aliases, dedupShared(fused, protected, &rep))
		}
	}
	if o.Subsume {
		aliases = subsumeProtected(fused, protected, aliases, o.Contain, &rep)
	}
	rep.RulesOut = len(fused.Rules)
	return fused, aliases, rep
}

// composeAliases redirects dst entries whose targets next merged away,
// and adopts next's new entries. Both maps' values must be surviving
// predicates of their respective passes, so the composition's values
// survive the later pass.
func composeAliases(dst, next map[string]string) map[string]string {
	if dst == nil {
		dst = map[string]string{}
	}
	for k, v := range dst {
		if nv, ok := next[v]; ok {
			dst[k] = nv
		}
	}
	for k, v := range next {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
	return dst
}

// apexRename clones p with every intensional — and every unknown, i.e.
// neither intensional nor extensional — predicate prefixed. Extensional
// tree predicates (τ_ur and its extensions, label_a, child_k) keep
// their names: they are the shared vocabulary fusion exists to ground
// once. Unknown predicates are renamed too, so a member's unruled
// (never-true) helper can never capture another member's defined
// predicate of the same name.
func apexRename(p *datalog.Program, prefix string) *datalog.Program {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	mapped := func(a datalog.Atom) string {
		if idb[a.Pred] {
			return prefix + a.Pred
		}
		switch len(a.Args) {
		case 2:
			if eval.IsBinaryEDB(a.Pred) {
				return a.Pred
			}
		case 1:
			if eval.IsUnaryEDB(a.Pred) {
				return a.Pred
			}
		}
		return prefix + a.Pred
	}
	out := p.Clone()
	for i := range out.Rules {
		out.Rules[i].Head.Pred = mapped(out.Rules[i].Head)
		for j := range out.Rules[i].Body {
			out.Rules[i].Body[j].Pred = mapped(out.Rules[i].Body[j])
		}
	}
	if out.Query != "" {
		out.Query = prefix + out.Query
	}
	return out
}

// dedupShared merges intensional predicates with identical definitions
// into one representative, to a fixpoint: merging two leaf auxiliaries
// makes the predicates defined in terms of them collide next round, so
// identical chains collapse bottom-up whatever their length.
//
// A merged-away predicate's occurrences are rewritten to the
// representative everywhere. Protected predicates are part of the
// fused program's output interface, so their extensions must stay
// addressable: when a protected predicate merges — two wrappers asking
// the same question should ground one chain, not two — its name is
// recorded in the returned alias map pointing at the surviving
// predicate, and the caller projects the shared relation under both
// names. (An alias RULE p(X) :- rep(X) would be semantically
// equivalent but grounds one Horn clause per document node, which for
// near-identical wrapper fleets costs more than the merge saves.)
func dedupShared(p *datalog.Program, protected map[string]bool, rep *FuseReport) map[string]string {
	// rename maps a merged-away predicate to its surviving
	// representative; lookups chase the chain so late merges compose.
	rename := map[string]string{}
	resolve := func(pred string) string {
		for {
			next, ok := rename[pred]
			if !ok {
				return pred
			}
			pred = next
		}
	}
	merged := map[string]string{} // protected pred -> representative at merge time
	for {
		// Group every defined predicate by the canonical form of its
		// complete defining rule set under the current renaming.
		defs := map[string][]datalog.Rule{}
		for _, r := range p.Rules {
			head := resolve(r.Head.Pred)
			defs[head] = append(defs[head], r)
		}
		groups := map[string][]string{}
		for pred, rules := range defs {
			key := canonicalDef(pred, rules, resolve)
			groups[key] = append(groups[key], pred)
		}
		progress := false
		for _, preds := range groups {
			if len(preds) < 2 {
				continue
			}
			sort.Strings(preds)
			// Representative: the first protected member if any (a
			// protected representative is never itself merged away
			// later, so alias chains always bottom out), else the
			// lexicographically smallest.
			repPred := preds[0]
			for _, pred := range preds {
				if protected[pred] {
					repPred = pred
					break
				}
			}
			for _, pred := range preds {
				if pred == repPred {
					continue
				}
				rename[pred] = repPred
				rep.MergedPreds++
				progress = true
				if protected[pred] {
					merged[pred] = repPred
				}
			}
		}
		if !progress {
			break
		}
		// Apply the renaming and drop the duplicate definitions it
		// creates (the merged predicate's rules become copies of the
		// representative's).
		for i := range p.Rules {
			p.Rules[i].Head.Pred = resolve(p.Rules[i].Head.Pred)
			for j := range p.Rules[i].Body {
				p.Rules[i].Body[j].Pred = resolve(p.Rules[i].Body[j].Pred)
			}
		}
		var dr Report
		dedupRules(p, &dr)
		rep.MergedRules += dr.DuplicateRules
	}
	// Resolve each merged protected predicate to its final survivor
	// (the representative recorded at merge time may itself have been
	// merged onward in a later round; the survivor at the end of a
	// rename chain always retains its defining rules).
	aliases := make(map[string]string, len(merged))
	for pred, repPred := range merged {
		aliases[pred] = resolve(repPred)
	}
	return aliases
}
