package discord

import (
	"grammarviz/internal/sax"
	"grammarviz/internal/timeseries"
)

// This file wires sax.CodeDist into the discord searches: before paying
// for a z-normalized Euclidean distance, the inner loop consults the
// MINDIST lower bound between the two subsequences' packed SAX word
// codes. MINDIST lower-bounds the true z-normalized distance (the SAX
// admissibility property), so whenever the bound already exceeds the
// loop's pruning cutoff the kernel call is skipped outright: the true
// distance would have been strictly above both the candidate's running
// nearest-neighbor and the best-so-far discord distance, so neither an
// update nor an early abandon is lost. Discords are byte-identical with
// the filter on or off; only the distance-call count (the paper's Table 1
// metric) drops. The filter engages only when the word shape packs into a
// uint64 (WordCodec.Fits) and the discretization uses the default
// z-normalization threshold — the same one Stats hard-codes — because a
// word encoded under a different flat-window guard does not describe the
// subsequence the kernel normalizes.

// pruneSlack is the relative safety margin on the lower-bound comparison:
// the bound is mathematically below the true distance, but it is computed
// with different floating-point operations, so a hair of slack keeps the
// filter conservative instead of exact-boundary dependent. Weakening the
// filter never changes results — it only forgoes a skip.
const pruneSlack = 1e-9

// codePruner is an immutable MINDIST pre-filter shared by every worker of
// a search: packed word codes per candidate (or per window position), and
// the coded MINDIST evaluator. Safe for concurrent readers.
type codePruner struct {
	cd    *sax.CodeDist
	codes []uint64
	has   []bool
	lens  []int // per-candidate interval lengths; nil = fixed-window search
}

// defaultNormThreshold reports whether the parameterization z-normalizes
// with the same flat-window guard as the distance kernel's Stats.
func defaultNormThreshold(p sax.Params) bool {
	return p.NormThreshold == 0 || p.NormThreshold == timeseries.DefaultNormThreshold
}

// newFixedPruner builds the pre-filter for a fixed-window search from an
// unreduced discretization: every window position carries its packed
// code. It returns nil (filter disabled) when the discretization is not
// coded or the evaluator cannot be built.
func newFixedPruner(d *sax.Discretization) *codePruner {
	if d == nil || !d.Coded || !defaultNormThreshold(d.Params) {
		return nil
	}
	dt, err := sax.NewDistTable(d.Params.Alphabet)
	if err != nil {
		return nil
	}
	cd, err := sax.NewCodeDist(dt, sax.NewWordCodec(d.Params.PAA, d.Params.Alphabet))
	if err != nil {
		return nil
	}
	n := d.SeriesLen - d.Params.Window + 1
	cp := &codePruner{cd: cd, codes: make([]uint64, n), has: make([]bool, n)}
	for _, w := range d.Words {
		if w.Offset >= 0 && w.Offset < n {
			cp.codes[w.Offset] = w.Code
			cp.has[w.Offset] = true
		}
	}
	return cp
}

// newCandidatePruner builds the pre-filter for the RRA search: each
// candidate interval is SAX-encoded as one word over its own (variable)
// length, by a sax.IntervalCoder over the whole series — O(PAA) per
// candidate from prefix sums, with codes byte-identical to
// sax.Encoder.EncodeCode on the candidate's slice. The bound only
// describes a comparison at exactly the encoded length, so skip()
// additionally requires both intervals to match the compared length.
// Returns nil (filter disabled) when the word shape does not pack or the
// parameterization uses a non-default norm threshold.
func newCandidatePruner(ts []float64, cands []Candidate, p sax.Params) *codePruner {
	if !defaultNormThreshold(p) {
		return nil
	}
	ic, err := sax.NewIntervalCoder(ts, sax.Params{PAA: p.PAA, Alphabet: p.Alphabet})
	if err != nil {
		return nil // includes a word shape that does not pack
	}
	dt, err := sax.NewDistTable(p.Alphabet)
	if err != nil {
		return nil
	}
	cd, err := sax.NewCodeDist(dt, sax.NewWordCodec(p.PAA, p.Alphabet))
	if err != nil {
		return nil
	}
	cp := &codePruner{
		cd:    cd,
		codes: make([]uint64, len(cands)),
		has:   make([]bool, len(cands)),
		lens:  make([]int, len(cands)),
	}
	for i, c := range cands {
		cp.lens[i] = c.IV.Len()
		if c.IV.Len() < p.PAA || c.IV.Start < 0 || c.IV.End >= len(ts) {
			continue
		}
		code, err := ic.Code(c.IV.Start, c.IV.Len())
		if err != nil {
			continue
		}
		cp.codes[i] = code
		cp.has[i] = true
	}
	return cp
}

// skip reports whether the comparison of candidates i and j over length
// points can be skipped without calling the distance kernel: both codes
// exist, both describe exactly a length-point subsequence, and the
// MINDIST lower bound already exceeds rawCutoff (the kernel-scale cutoff
// — for RRA's length-normalized distances, the caller multiplies the
// normalized cutoff back by the length).
func (cp *codePruner) skip(i, j, length int, rawCutoff float64) bool {
	if !cp.has[i] || !cp.has[j] {
		return false
	}
	if cp.lens != nil && (cp.lens[i] != length || cp.lens[j] != length) {
		return false
	}
	return cp.cd.MINDISTCode(cp.codes[i], cp.codes[j], length) > rawCutoff*(1+pruneSlack)
}
