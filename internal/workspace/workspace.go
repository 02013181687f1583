// Package workspace pools per-analysis scratch state so the serving path
// reuses, rather than reallocates, the grammar-induction hot path's
// working memory. One Workspace holds everything a single analysis
// mutates off the critical output path: the Sequitur Inducer (symbol
// arena, digram index, vocabulary) and the density curve's difference
// array. Outputs that outlive the analysis (the Grammar snapshot, the
// RuleSet, the density curve itself) are always freshly allocated —
// nothing a Pipeline or Detector retains aliases workspace memory, which
// is what makes checkout/return safe.
//
// Workspaces are checked out per analysis (internal/core does this for
// every AnalyzeCtx call, and thereby for every gvad cache-miss request)
// and returned when the analysis ends, successfully or not. The pool is
// sync.Pool-backed: under steady load each worker effectively keeps a
// warm workspace, and idle workspaces are reclaimed by the GC.
//
// The package also pools the HTTP request-body buffer (Body) that gvad
// decodes analyze and append requests from, so one checkout/release
// contract — and one analyzer, poolrelease — covers every pool.
package workspace

import (
	"sync"

	"grammarviz/internal/sequitur"
)

// Workspace is one analysis's reusable scratch state. Zero value is not
// ready; obtain instances through Get.
type Workspace struct {
	// Inducer is the pooled Sequitur inducer. Callers must Reset /
	// ResetCodes / ResetStrings it before feeding tokens and must not
	// retain references to it after Put.
	Inducer *sequitur.Inducer

	// Diff is the density curve's difference-array scratch, grown on
	// demand and reused across analyses.
	Diff []int
}

var pool = sync.Pool{
	New: func() any {
		return &Workspace{Inducer: sequitur.NewInducer()}
	},
}

// Get checks a Workspace out of the pool.
func Get() *Workspace {
	return pool.Get().(*Workspace)
}

// Put returns a Workspace to the pool. The caller must not use ws (or
// anything non-snapshot reachable from it) afterwards.
func Put(ws *Workspace) {
	pool.Put(ws)
}

// DiffScratch returns ws.Diff resized to n, zeroed. The slice stays owned
// by the workspace; callers must copy anything they want to keep.
func (ws *Workspace) DiffScratch(n int) []int {
	if cap(ws.Diff) < n {
		ws.Diff = make([]int, n)
	}
	d := ws.Diff[:n]
	for i := range d {
		d[i] = 0
	}
	ws.Diff = d
	return d
}

// Kernel is the pooled scratch of the discord distance kernel's
// query-pinned fast path: one buffer holding the current candidate
// subsequence, z-normalized once, so the one-vs-many inner loops compare
// neighbors against precomputed values instead of re-normalizing the query
// on every kernel call. A Kernel belongs to exactly one search engine at a
// time; parallel searches check one out per worker. It is deliberately
// separate from Workspace — distance searches do not need the Sequitur
// arena, and grammar inductions do not need a float buffer.
type Kernel struct {
	// QNorm is the pinned query's z-normalized values, grown on demand
	// and reused across candidates and searches.
	QNorm []float64

	// Mean/Inv/Stamp back the engine's per-subsequence moment memo: the
	// mean and inverse std of ts[q:q+length] for the currently pinned
	// length, computed on first touch and reused for every later kernel
	// call against the same neighbor. Stamp[q] == Epoch marks a valid
	// entry; bumping Epoch invalidates the whole table in O(1) when the
	// pinned length (or the series behind a reused pooled Kernel)
	// changes.
	Mean  []float64
	Inv   []float64
	Stamp []uint32
	Epoch uint32

	// Visit/VisitEpoch back the searches' per-candidate visited set: an
	// inner loop marks the neighbors of its same-group phase with
	// Visit[i] = VisitEpoch and skips them in its random-order phase.
	// Each candidate takes a fresh epoch, so the set is emptied in O(1)
	// instead of being reallocated.
	Visit      []uint32
	VisitEpoch uint32
}

var kernelPool = sync.Pool{
	New: func() any { return &Kernel{} },
}

// GetKernel checks a Kernel scratch out of the pool. Like Get/Put, every
// GetKernel must be paired with a PutKernel on all paths (the poolrelease
// analyzer enforces this).
func GetKernel() *Kernel {
	return kernelPool.Get().(*Kernel)
}

// PutKernel returns a Kernel to the pool. The caller must not use k (or
// any slice obtained from it) afterwards.
func PutKernel(k *Kernel) {
	kernelPool.Put(k)
}

// QNormScratch returns k.QNorm resized to n. The contents are
// unspecified — callers overwrite every element. The slice stays owned by
// the Kernel; callers must not retain it past PutKernel.
//
//gvad:noalloc
func (k *Kernel) QNormScratch(n int) []float64 {
	if cap(k.QNorm) < n {
		k.QNorm = make([]float64, n)
	}
	k.QNorm = k.QNorm[:n]
	return k.QNorm
}

// MomentScratch returns the moment-memo tables resized to n entries and
// invalidated: Epoch is advanced past every stamp the tables may hold, so
// each entry reads as stale until the caller stores into it. Fresh
// allocations are zeroed by the runtime and Epoch never returns to zero,
// so recycled and newly grown tables are indistinguishable. The slices
// stay owned by the Kernel; callers must not retain them past PutKernel.
//
//gvad:noalloc
func (k *Kernel) MomentScratch(n int) (mean, inv []float64, stamp []uint32) {
	if cap(k.Mean) < n {
		k.Mean = make([]float64, n)
		k.Inv = make([]float64, n)
		k.Stamp = make([]uint32, n)
	}
	k.Mean, k.Inv, k.Stamp = k.Mean[:n], k.Inv[:n], k.Stamp[:n]
	k.Epoch++
	if k.Epoch == 0 {
		// uint32 wraparound after ~4 billion invalidations: zero wears the
		// "never stamped" meaning, so clear the stamps and restart at 1.
		clear(k.Stamp)
		k.Epoch = 1
	}
	return k.Mean, k.Inv, k.Stamp
}

// VisitScratch returns the visit table resized to n entries together
// with a fresh epoch that no entry holds yet, so the set reads as empty
// until the caller marks entries with it. Like MomentScratch it grows on
// demand and clears the table only when the epoch wraps around. The slice
// stays owned by the Kernel; callers must not retain it past PutKernel.
//
//gvad:noalloc
func (k *Kernel) VisitScratch(n int) (visit []uint32, epoch uint32) {
	if cap(k.Visit) < n {
		k.Visit = make([]uint32, n)
	}
	k.Visit = k.Visit[:n]
	k.VisitEpoch++
	if k.VisitEpoch == 0 {
		clear(k.Visit[:cap(k.Visit)])
		k.VisitEpoch = 1
	}
	return k.Visit, k.VisitEpoch
}

// MaxPooledBody caps the capacity of a Body buffer PutBody returns to the
// pool. Larger buffers are dropped for the GC, so one outsized request
// (gvad accepts bodies up to 64 MiB) cannot pin its buffer in every idle
// pool slot. 4 MiB holds a ~200k-point series.
const MaxPooledBody = 4 << 20

// Body is a pooled request-body buffer. Buf's contents are scratch:
// decoders must copy out everything they keep (gvad's series slices are
// always freshly allocated, because detectors retain them).
type Body struct {
	Buf []byte
}

var bodyPool = sync.Pool{
	New: func() any { return &Body{} },
}

// GetBody checks a Body out of the pool with Buf empty. Like Get/Put,
// every GetBody must be paired with a PutBody on all paths (the
// poolrelease analyzer enforces this).
func GetBody() *Body {
	return bodyPool.Get().(*Body)
}

// PutBody returns b to the pool, unless its buffer grew past
// MaxPooledBody. The caller must not use b or b.Buf afterwards.
func PutBody(b *Body) {
	if cap(b.Buf) > MaxPooledBody {
		return
	}
	b.Buf = b.Buf[:0]
	bodyPool.Put(b)
}
