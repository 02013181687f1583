package sax

import (
	"math"

	"grammarviz/internal/paa"
)

// This file implements the incremental sliding-window SAX encoder: instead
// of z-normalizing and PAA-reducing every window from scratch (O(window)
// per window), it derives each window's mean/std and raw PAA segment sums
// from series-level prefix sums (O(paa) per window). The z-normalize-then-
// PAA pipeline is affine in the raw values, so
//
//	PAA(znorm(x))[k] = (PAA(x)[k] - mean(x)) / std(x)
//
// in real arithmetic, which lets the whole per-window computation run on
// prefix-sum differences.
//
// Floating point breaks real-arithmetic identities, so the encoder is
// guarded: it tracks conservative error bounds for every derived quantity
// and falls back to the naive per-window encoder whenever a SAX letter
// decision (distance of a segment value to an alphabet breakpoint) or the
// flat-window guard (distance of the variance to threshold^2) is within
// the bound. The output is therefore byte-identical to DiscretizeReference
// for every input; the fallback only costs speed, and triggers only on
// windows whose letters are genuinely on a knife's edge.

// errScale converts a tracked magnitude into a conservative absolute error
// bound. Kahan-compensated prefix sums keep per-entry error within a few
// ulps (~1e-15 relative); 1e-11 leaves four orders of magnitude of margin
// for the downstream arithmetic on both the incremental and naive sides.
const errScale = 1e-11

// slidingStats holds the immutable per-series precomputation shared by all
// workers of a sliding discretization: compensated prefix sums, the PAA
// segment pattern, the alphabet breakpoints, and error-bound magnitudes.
type slidingStats struct {
	ts      []float64
	p       Params
	cuts    []float64
	pat     *paa.SegmentPattern
	sum     []float64 // Kahan prefix sums: sum[i] = ts[0]+...+ts[i-1]
	sumSq   []float64
	changes []int32 // prefix count of ts[i] != ts[i-1] (constant-window test)
	thresh  float64 // flat-window std threshold
	thresh2 float64

	meanErr    float64 // bound on |incremental mean - naive mean|
	segMeanErr float64 // bound on a raw PAA segment mean's error
	sumSqErr   float64 // bound on the window's mean-square error

	// forceNaive disables the incremental path entirely: the prefix sums
	// (or their squares) overflowed to Inf, so no error bound is
	// trustworthy. Every window then takes the naive encoder, which keeps
	// the output byte-identical to DiscretizeReference by construction.
	forceNaive bool

	// magP and magQ are the largest absolute prefix sums of the values
	// and of their squares: the magnitudes the error bounds scale with.
	magP, magQ float64
}

// kahanPrefix builds a compensated prefix-sum array of f(v) over ts and
// returns it with the maximum absolute prefix value (the error magnitude).
func kahanPrefix(ts []float64, f func(float64) float64) (out []float64, maxAbs float64) {
	out = make([]float64, len(ts)+1)
	var s, c float64
	for i, v := range ts {
		y := f(v) - c
		t := s + y
		c = (t - s) - y
		s = t
		out[i+1] = s
		if a := math.Abs(s); a > maxAbs {
			maxAbs = a
		}
	}
	return out, maxAbs
}

func newSlidingStats(ts []float64, p Params) (*slidingStats, error) {
	st, err := newSeriesStats(ts, p)
	if err != nil {
		return nil, err
	}
	if err := st.setWindow(p.Window); err != nil {
		return nil, err
	}
	return st, nil
}

// newSeriesStats builds the window-independent part of a slidingStats:
// breakpoints, prefix sums, change counts and the overflow guard. The
// window-dependent part is left for setWindow.
func newSeriesStats(ts []float64, p Params) (*slidingStats, error) {
	cuts, err := Breakpoints(p.Alphabet)
	if err != nil {
		return nil, err
	}
	st := &slidingStats{
		ts:      ts,
		p:       p,
		cuts:    cuts,
		thresh:  p.normThreshold(),
		thresh2: p.normThreshold() * p.normThreshold(),
	}
	st.sum, st.magP = kahanPrefix(ts, func(v float64) float64 { return v })
	st.sumSq, st.magQ = kahanPrefix(ts, func(v float64) float64 { return v * v })
	st.changes = make([]int32, len(ts)+1)
	for i := 1; i < len(ts); i++ {
		st.changes[i+1] = st.changes[i]
		if ts[i] != ts[i-1] {
			st.changes[i+1]++
		}
	}
	// Values above ~1.3e154 overflow the squared prefix sums even though
	// the series itself is finite; past that point the incremental
	// arithmetic (and its error tracking) is meaningless.
	st.forceNaive = math.IsInf(st.magP, 0) || math.IsInf(st.magQ, 0)
	return st, nil
}

// setWindow fixes the window length w: the PAA segment pattern and the
// error bounds, which scale with w.
func (st *slidingStats) setWindow(w int) error {
	pat, err := paa.NewSegmentPattern(w, st.p.PAA)
	if err != nil {
		return err
	}
	st.p.Window = w
	st.pat = pat
	n := float64(w)
	st.meanErr = errScale * (st.magP/n + 1)
	st.sumSqErr = errScale * (st.magQ/n + 1)
	st.segMeanErr = errScale * (st.magP*pat.Inv + 1)
	return nil
}

// windowEncoder is one worker's mutable view of a slidingStats: a reusable
// word buffer plus the naive fallback encoder. Not safe for concurrent
// use; create one per goroutine.
type windowEncoder struct {
	st        *slidingStats
	buf       []byte
	naive     *Encoder
	flatCache map[uint64][]byte // constant-window value bits -> naive word
	fallbacks int               // windows that took the naive path (observability/tests)
}

func (st *slidingStats) newWindowEncoder() (*windowEncoder, error) {
	naive, err := NewEncoder(st.p)
	if err != nil {
		return nil, err
	}
	return &windowEncoder{st: st, buf: make([]byte, st.p.PAA), naive: naive}, nil
}

// encode writes the SAX word of the window starting at start into the
// reusable buffer and returns it. The buffer is valid until the next call.
func (we *windowEncoder) encode(start int) ([]byte, error) {
	st := we.st
	w := st.p.Window
	// Bitwise-constant windows land exactly on the central breakpoint, so
	// the incremental guard would punt every one of them to the naive
	// encoder — an O(window) cost on flat-heavy data (telemetry, spiky
	// series). Their naive word depends only on the constant's value, so
	// encode it once per distinct value and serve repeats from a cache.
	if st.changes[start+w] == st.changes[start+1] {
		bits := math.Float64bits(st.ts[start])
		if word, ok := we.flatCache[bits]; ok {
			copy(we.buf, word)
			return we.buf, nil
		}
		if err := we.naive.EncodeInto(we.buf, st.ts[start:start+w]); err != nil {
			return nil, err
		}
		if we.flatCache == nil {
			we.flatCache = make(map[uint64][]byte)
		}
		we.flatCache[bits] = append([]byte(nil), we.buf...)
		return we.buf, nil
	}
	if !we.tryIncremental(start) {
		we.fallbacks++
		if err := we.naive.EncodeInto(we.buf, st.ts[start:start+w]); err != nil {
			return nil, err
		}
	}
	return we.buf, nil
}

// tryIncremental attempts the prefix-sum encoding of one window. It
// reports false — leaving the buffer unspecified — when any letter or the
// flat-window decision falls within the tracked error bound of a boundary,
// in which case the caller must take the naive path.
func (we *windowEncoder) tryIncremental(start int) bool {
	st := we.st
	if st.forceNaive {
		return false
	}
	w := st.p.Window
	n := float64(w)
	sum := st.sum[start+w] - st.sum[start]
	sumSq := st.sumSq[start+w] - st.sumSq[start]
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	absMean := math.Abs(mean)
	varErr := st.sumSqErr + 2*absMean*st.meanErr + st.meanErr*st.meanErr
	if math.Abs(variance-st.thresh2) <= 4*varErr {
		return false // ambiguous flat-window decision
	}
	s := 1.0 // flat windows are centered, not scaled (ZNormalizeInto)
	var sErr float64
	if variance > st.thresh2 {
		std := math.Sqrt(variance)
		s = 1 / std
		sErr = s * s * (varErr / (2 * std))
	}
	valErr := (st.segMeanErr + st.meanErr) * s
	ts := st.ts
	for k := range st.pat.Segs {
		seg := &st.pat.Segs[k]
		raw := st.sum[start+seg.Hi] - st.sum[start+seg.Lo]
		if seg.FracIdx[0] >= 0 {
			raw += ts[start+seg.FracIdx[0]] * seg.FracW[0]
		}
		if seg.FracIdx[1] >= 0 {
			raw += ts[start+seg.FracIdx[1]] * seg.FracW[1]
		}
		segMean := raw * st.pat.Inv
		v := (segMean - mean) * s
		vErr := 4*(valErr+math.Abs(segMean-mean)*sErr) + 1e-12
		letter := Letter(st.cuts, v)
		if letter > 0 && v-st.cuts[letter-1] <= vErr {
			return false // too close to the breakpoint below
		}
		if int(letter) < len(st.cuts) && st.cuts[letter]-v <= vErr {
			return false // too close to the breakpoint above
		}
		we.buf[k] = IndexToChar(letter)
	}
	return true
}
