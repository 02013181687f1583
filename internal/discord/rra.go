package discord

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"grammarviz/internal/grammar"
	"grammarviz/internal/sax"
	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// Candidate is one RRA search interval: a grammar-rule occurrence, or a
// zero-coverage gap (Freq 0).
type Candidate struct {
	IV     timeseries.Interval
	RuleID int // -1 for zero-coverage gaps
	Freq   int // the rule's usage frequency
}

// minCandidateLen is the shortest interval RRA will evaluate: comparing
// z-normalized subsequences needs at least a handful of points to be
// meaningful.
const minCandidateLen = 4

// Candidates assembles RRA's search intervals from a rule set: every rule
// occurrence, plus every maximal run of words that never made it into any
// rule ("continuous subsequences of the discretized time series that do
// not form any rule", Section 4.2) — frequency 0, considered first by the
// outer loop. Both kinds of interval span at least one window, so the
// length-normalized distance compares like with like.
func Candidates(rs *grammar.RuleSet) []Candidate {
	var cands []Candidate
	for _, rec := range rs.Records {
		for _, iv := range rec.Occurrences {
			if iv.Len() >= minCandidateLen {
				cands = append(cands, Candidate{IV: iv, RuleID: rec.ID, Freq: rec.Frequency})
			}
		}
	}
	for _, run := range rs.UncoveredWordRuns() {
		iv := rs.WordInterval(run[0], run[1])
		if iv.Len() >= minCandidateLen {
			cands = append(cands, Candidate{IV: iv, RuleID: -1, Freq: 0})
		}
	}
	return cands
}

// RRA is the paper's exact variable-length discord search (Algorithm 1):
// a HOTSAX-style nested loop over the grammar-derived candidate intervals.
// The outer loop visits candidates in ascending rule-frequency order
// (zero-coverage gaps first, shuffled within a frequency class); the inner
// loop visits occurrences of the candidate's own rule first, then the rest
// in random order. Distance is the length-normalized Euclidean distance of
// Eq. 1, so discords of different lengths are comparable. Top-k discords
// are found by re-running the search with previously found discords'
// regions excluded from the candidate list.
//
// RRA runs on one goroutine; RRAParallel fans the outer loop across cores
// with byte-identical results.
func RRA(ts []float64, rs *grammar.RuleSet, k int, seed int64) (Result, error) {
	return rraSearch(context.Background(), NewStats(ts), Candidates(rs), k, seed)
}

// RRAStats is RRA on prebuilt series statistics, so repeated searches (or
// searches sharing a series with HOTSAX / brute force) skip the O(n)
// prefix-sum rebuild.
func RRAStats(st *Stats, rs *grammar.RuleSet, k int, seed int64) (Result, error) {
	return rraSearch(context.Background(), st, Candidates(rs), k, seed)
}

// RRAStatsCtx is RRAStats with cooperative cancellation: the search polls
// ctx at bounded intervals in both loops. When the context is cancelled
// mid-search, the discords of the fully completed top-k rounds are
// returned with Partial set, together with a ctx.Err()-wrapped error.
// With a never-cancelled context the result is byte-identical to RRAStats.
func RRAStatsCtx(ctx context.Context, st *Stats, rs *grammar.RuleSet, k int, seed int64) (Result, error) {
	return rraSearch(ctx, st, Candidates(rs), k, seed)
}

func rraSearch(ctx context.Context, st *Stats, cands []Candidate, k int, seed int64) (Result, error) {
	return rraSearchPruned(ctx, st, cands, k, seed, Tuning{}, nil)
}

// RRAStatsCodedCtx is RRAStatsCtx with the coded MINDIST pre-filter
// enabled (see codeprune.go): every candidate interval is packed into a
// SAX word code of p's shape, and inner-loop comparisons whose MINDIST
// lower bound already exceeds the pruning cutoff skip the distance kernel.
// Discords are byte-identical to RRAStatsCtx; DistCalls only drops (the
// skipped comparisons are counted in Result.Pruned). When p cannot drive
// the filter (word does not pack, non-default norm threshold) the search
// silently runs unfiltered.
func RRAStatsCodedCtx(ctx context.Context, st *Stats, rs *grammar.RuleSet, k int, seed int64, p sax.Params) (Result, error) {
	cands := Candidates(rs)
	return rraSearchPruned(ctx, st, cands, k, seed, Tuning{}, newCandidatePruner(st.ts, cands, p))
}

// rraOrders bundles the seeded heuristic orderings shared by the serial
// and parallel searches: outer visiting order, same-rule occurrence lists,
// and the shared random inner order. Deriving them identically from the
// seed is what keeps the two search modes byte-identical.
type rraOrders struct {
	outer  []int
	byRule groupIndex
	inner  []int
}

func newRRAOrders(cands []Candidate, seed int64, tuning Tuning) rraOrders {
	rng := rand.New(rand.NewSource(seed))
	o := rraOrders{
		outer: orderOuter(len(cands), func(i int) int { return cands[i].Freq }, rng, tuning),
	}
	if !tuning.NoSameGroupFirst {
		o.byRule = newGroupIndex(len(cands), func(i int) int { return cands[i].RuleID })
	}
	o.inner = rng.Perm(len(cands)) // shared random order for the second phase
	return o
}

// groupIndex lists the members of each group in compressed sparse row
// form: group g's members are idx[off[g-lo]:off[g-lo+1]]. It backs the
// inner loops' same-group-first phase — RRA's same-rule occurrences and
// HOTSAX's same-word positions. A stable counting sort builds it with two
// allocations, where a map of growing per-group slices cost at least one
// per group; each list is ascending, as the appended slices were, so the
// inner loops visit in the same order. The zero value is an empty index.
type groupIndex struct {
	lo  int   // smallest group key (RRA's zero-coverage gaps are -1)
	off []int // off[g]..off[g+1] bounds group lo+g's span of idx
	idx []int
}

// newGroupIndex groups the members 0..n-1 by key(i). The offsets array
// spans the whole key range, so keys should be dense, as rule ids and
// word ids are.
func newGroupIndex(n int, key func(i int) int) groupIndex {
	if n == 0 {
		return groupIndex{}
	}
	lo, hi := key(0), key(0)
	for i := 1; i < n; i++ {
		lo = min(lo, key(i))
		hi = max(hi, key(i))
	}
	off := make([]int, hi-lo+2)
	for i := 0; i < n; i++ {
		off[key(i)-lo+1]++
	}
	for g := 1; g < len(off); g++ {
		off[g] += off[g-1]
	}
	// Place each member at its group's cursor; afterwards off[g] holds the
	// end of group g, so shifting right by one restores the starts.
	idx := make([]int, n)
	for i := 0; i < n; i++ {
		g := key(i) - lo
		idx[off[g]] = i
		off[g]++
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	return groupIndex{lo: lo, off: off, idx: idx}
}

// of returns group key's members in ascending order (nil when it has
// none). The slice is shared; callers must not modify it.
func (x groupIndex) of(key int) []int {
	g := key - x.lo
	if g < 0 || g+1 >= len(x.off) {
		return nil
	}
	return x.idx[x.off[g]:x.off[g+1]:x.off[g+1]]
}

func rraSearchTuned(ctx context.Context, st *Stats, cands []Candidate, k int, seed int64, tuning Tuning) (Result, error) {
	return rraSearchPruned(ctx, st, cands, k, seed, tuning, nil)
}

func rraSearchPruned(ctx context.Context, st *Stats, cands []Candidate, k int, seed int64, tuning Tuning, cp *codePruner) (Result, error) {
	ord := newRRAOrders(cands, seed, tuning)
	m := len(st.ts)
	e := st.viewCtx(ctx)
	e.refKernel = tuning.ReferenceKernel
	kw := workspace.GetKernel()
	defer workspace.PutKernel(kw)
	e.scratch = kw
	e.prune = cp
	var res Result
	for found := 0; found < k; found++ {
		best := Discord{Dist: -1, RuleID: -1, NNStart: -1}
		for _, ci := range ord.outer {
			if e.cancelled() {
				break
			}
			c := cands[ci]
			if overlapsAny(c.IV, res.Discords) {
				continue
			}
			nn, nnStart := e.rraNearest(c, ci, cands, ord.byRule.of(c.RuleID), ord.inner, cutoffRef{fixed: best.Dist}, m)
			if nnStart >= 0 && nn > best.Dist {
				best = Discord{Interval: c.IV, Dist: nn, NNStart: nnStart, RuleID: c.RuleID, Freq: c.Freq}
			}
		}
		if err := e.cancelCause(); err != nil {
			// The round was cut short: its best-so-far is not validated
			// against the full outer order, so only the completed rounds'
			// discords are reported.
			res.DistCalls = e.Calls()
			res.Pruned = e.Pruned()
			res.Partial = true
			return res, fmt.Errorf("discord: rra cancelled after %d of %d discords: %w", len(res.Discords), k, err)
		}
		if best.NNStart < 0 {
			break
		}
		res.Discords = append(res.Discords, best)
	}
	res.DistCalls = e.Calls()
	res.Pruned = e.Pruned()
	if len(res.Discords) == 0 {
		return res, ErrNoCandidates
	}
	return res, nil
}

// cutoffRef supplies the best-so-far pruning cutoff to the inner loop:
// either a fixed value (serial search) or a monotonically rising shared
// maximum (parallel search). A stale shared value only weakens pruning —
// it never changes which candidate wins — so both sources yield identical
// discords.
type cutoffRef struct {
	shared *atomicMax
	fixed  float64
}

func (c cutoffRef) value() float64 {
	if c.shared != nil {
		return c.shared.load()
	}
	return c.fixed
}

// rraNearest runs the RRA inner loop for candidate c (index ci): same-rule
// occurrences first, then every candidate in the shared random order. It
// returns (-Inf, -2) as soon as a distance below the best-so-far cutoff
// proves c cannot be the discord. Distances are normalized by the
// candidate's length. The candidate subsequence is pinned once — its
// normalization derived a single time into the engine's scratch buffer —
// and every occurrence comparison runs the query-pinned kernel.
func (e *engine) rraNearest(c Candidate, ci int, cands []Candidate, sameRule, inner []int, bs cutoffRef, m int) (float64, int) {
	length := c.IV.Len()
	e.pin(c.IV.Start, length)
	nn := math.Inf(1)
	nnStart := -1
	scale := float64(length)

	visit := func(qi int) bool {
		if e.cancelled() {
			return false // abandon; the caller checks e.cancelCause()
		}
		if qi == ci {
			return true
		}
		q := cands[qi].IV.Start
		if abs(c.IV.Start-q) < length {
			return true // self match (Algorithm 1 line 7)
		}
		if q+length > m {
			return true // cannot extract len(p) points at q
		}
		bestSoFar := bs.value()
		cutoff := nn
		if bestSoFar > cutoff {
			cutoff = bestSoFar
		}
		// MINDIST pre-filter: when the lower bound between the two packed
		// word codes already exceeds the raw-scale cutoff, the kernel call
		// can only confirm "neither an nn update nor an abandon" — skip it.
		if e.prune != nil && e.prune.skip(ci, qi, length, cutoff*scale) {
			e.pruned++
			return true
		}
		d := e.pinnedDist(q, cutoff*scale) / scale
		if d < bestSoFar {
			return false
		}
		if d < nn {
			nn = d
			nnStart = q
		}
		return true
	}

	// Same-rule occurrences are marked as visited so the random-order
	// pass skips them; a fresh epoch of the pooled visit table empties
	// the set without allocating.
	seen, epoch := e.scratch.VisitScratch(len(cands))
	for _, qi := range sameRule {
		seen[qi] = epoch
		if !visit(qi) {
			return math.Inf(-1), -2
		}
	}
	for _, qi := range inner {
		if seen[qi] == epoch {
			continue
		}
		if !visit(qi) {
			return math.Inf(-1), -2
		}
	}
	return nn, nnStart
}

// NearestNonSelf computes, for every candidate interval, the true
// length-normalized distance to its nearest non-self match (no best-so-far
// break). It is the data behind the bottom panels of Figures 2 and 3 —
// a vertical line at each rule-corresponding subsequence whose height is
// the distance.
func NearestNonSelf(ts []float64, rs *grammar.RuleSet) []Discord {
	return NearestNonSelfParallelStats(NewStats(ts), rs, 1)
}
