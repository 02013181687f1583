package discord

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"grammarviz/internal/grammar"
	"grammarviz/internal/worker"
	"grammarviz/internal/workspace"
)

// NearestNonSelfParallel computes exactly what NearestNonSelf computes,
// fanned out over up to workers goroutines (workers <= 0 selects
// GOMAXPROCS). Every candidate's scan is independent, so the output is
// byte-identical to the serial version regardless of scheduling.
func NearestNonSelfParallel(ts []float64, rs *grammar.RuleSet, workers int) []Discord {
	return NearestNonSelfParallelStats(NewStats(ts), rs, workers)
}

// NearestNonSelfParallelStats is NearestNonSelfParallel on prebuilt series
// statistics. All workers read the same Stats — a worker's private state is
// just a distance-call counter — so per-worker memory no longer grows with
// the series length. A worker panic is re-raised on the caller's goroutine
// (use the Ctx variant to receive it as an error instead).
func NearestNonSelfParallelStats(st *Stats, rs *grammar.RuleSet, workers int) []Discord {
	out, err := NearestNonSelfParallelStatsCtx(context.Background(), st, rs, workers)
	if err != nil {
		// Only a contained worker panic can reach here with a background
		// context; surface it on the caller's goroutine rather than
		// swallowing it.
		panic(err)
	}
	return out
}

// NearestNonSelfParallelStatsCtx is NearestNonSelfParallelStats with
// cooperative cancellation and panic containment: each worker polls ctx at
// bounded intervals, a cancelled context returns a ctx.Err()-wrapped error
// promptly, and a worker panic is recovered into a *worker.PanicError
// instead of crashing the process.
func NearestNonSelfParallelStatsCtx(ctx context.Context, st *Stats, rs *grammar.RuleSet, workers int) ([]Discord, error) {
	return nearestNonSelfSearch(ctx, st, rs, workers, Tuning{})
}

func nearestNonSelfSearch(ctx context.Context, st *Stats, rs *grammar.RuleSet, workers int, tuning Tuning) ([]Discord, error) {
	cands := Candidates(rs)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}

	byRule := newGroupIndex(len(cands), func(i int) int { return cands[i].RuleID })

	m := len(st.ts)
	results := make([]Discord, len(cands))
	found := make([]bool, len(cands))
	scan := func(ctx context.Context, w, stride int) error {
		e := st.viewCtx(ctx)
		e.refKernel = tuning.ReferenceKernel
		kw := workspace.GetKernel()
		defer workspace.PutKernel(kw)
		e.scratch = kw
		for ci := w; ci < len(cands); ci += stride {
			if e.cancelled() {
				return e.cancelCause()
			}
			d, ok := nearestOf(e, cands, byRule, ci, m)
			if err := e.cancelCause(); err != nil {
				return err // scan cut short; its result is not recorded
			}
			if ok {
				results[ci] = d
				found[ci] = true
			}
		}
		return nil
	}
	if workers <= 1 {
		if err := scan(ctx, 0, 1); err != nil {
			return nil, fmt.Errorf("discord: nearest-non-self cancelled: %w", err)
		}
	} else {
		g, gctx := worker.WithContext(ctx)
		for w := 0; w < workers; w++ {
			w := w
			g.Go(func() error { return scan(gctx, w, workers) })
		}
		if err := g.Wait(); err != nil {
			return nil, fmt.Errorf("discord: nearest-non-self aborted: %w", err)
		}
	}

	out := make([]Discord, 0, len(cands))
	for i := range results {
		if found[i] {
			out = append(out, results[i])
		}
	}
	return out, nil
}

// nearestOf scans all candidates for the true nearest non-self match of
// candidate ci, same-rule occurrences first for early-abandoning warmth.
// The candidate is pinned once so the whole scan runs the query-pinned
// kernel, and the same-rule occurrences are marked in the pooled visit
// table so the full pass skips them.
func nearestOf(e *engine, cands []Candidate, byRule groupIndex, ci, m int) (Discord, bool) {
	c := cands[ci]
	length := c.IV.Len()
	e.pin(c.IV.Start, length)
	scale := float64(length)
	nn := math.Inf(1)
	nnStart := -1
	visit := func(qi int) {
		if e.cancelled() || qi == ci {
			return
		}
		q := cands[qi].IV.Start
		if abs(c.IV.Start-q) < length || q+length > m {
			return
		}
		d := e.pinnedDist(q, nn*scale) / scale
		if d < nn {
			nn = d
			nnStart = q
		}
	}
	seen, epoch := e.scratch.VisitScratch(len(cands))
	for _, qi := range byRule.of(c.RuleID) {
		seen[qi] = epoch
		visit(qi)
	}
	for qi := range cands {
		if seen[qi] != epoch {
			visit(qi)
		}
	}
	if nnStart < 0 {
		return Discord{}, false
	}
	return Discord{Interval: c.IV, Dist: nn, NNStart: nnStart, RuleID: c.RuleID, Freq: c.Freq}, true
}
