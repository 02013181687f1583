package sax

import (
	"fmt"

	"grammarviz/internal/paa"
	"grammarviz/internal/timeseries"
)

// IntervalCoder packs subsequences of one series, each of its own length,
// into SAX word codes — the variable-length counterpart of the sliding
// discretizer, for RRA's grammar-rule intervals. The series' compensated
// prefix sums are built once; each distinct length gets its own segment
// pattern and error bounds (both scale with the length), after which a
// subsequence costs O(PAA) instead of Encoder's four O(length) passes.
// Every code is byte-identical to Encoder.EncodeCode on the same slice:
// the sliding path's guard hands any letter within its error bound of a
// breakpoint to the naive encoder, and constant runs are cached per
// (length, value), because the rounding of a run's mean — and so its
// word — can depend on the run's length.
//
// An IntervalCoder is not safe for concurrent use.
type IntervalCoder struct {
	series *slidingStats // window-independent part, copied per length
	codec  WordCodec
	buf    []byte
	naive  *Encoder
	byLen  map[int]*windowEncoder
}

// lengthEncoder is one length's window encoder together with the
// slidingStats it reads, allocated as one block.
type lengthEncoder struct {
	st slidingStats
	we windowEncoder
}

// NewIntervalCoder returns a coder for subsequences of ts, with the word
// length, alphabet and norm threshold of p (p.Window is ignored: lengths
// are given per call). It fails with ErrCodeOverflow when the word shape
// does not pack into a uint64. A series with a non-finite value is
// accepted; every subsequence then takes the naive encoder.
func NewIntervalCoder(ts []float64, p Params) (*IntervalCoder, error) {
	naive, err := NewEncoder(p)
	if err != nil {
		return nil, err
	}
	if !naive.Codec().Fits() {
		return nil, naive.overflowErr
	}
	st, err := newSeriesStats(ts, p)
	if err != nil {
		return nil, err
	}
	if timeseries.ValidateFinite(ts) != nil {
		// NaN poisons every later prefix sum without making it infinite,
		// which the overflow guard would not catch.
		st.forceNaive = true
	}
	return &IntervalCoder{
		series: st,
		codec:  naive.Codec(),
		buf:    make([]byte, p.PAA),
		naive:  naive,
		byLen:  make(map[int]*windowEncoder),
	}, nil
}

// Code returns the packed SAX word code of ts[start:start+length]. The
// length must be at least the word length and the subsequence must lie
// within the series.
func (ic *IntervalCoder) Code(start, length int) (uint64, error) {
	if length < ic.series.p.PAA {
		return 0, fmt.Errorf("%w: subsequence length %d < paa %d",
			paa.ErrBadSegments, length, ic.series.p.PAA)
	}
	if start < 0 || start+length > len(ic.series.ts) {
		return 0, fmt.Errorf("sax: subsequence [%d, %d) outside series of %d points",
			start, start+length, len(ic.series.ts))
	}
	we, ok := ic.byLen[length]
	if !ok {
		le := &lengthEncoder{st: *ic.series}
		if err := le.st.setWindow(length); err != nil {
			return 0, err
		}
		le.we = windowEncoder{st: &le.st, buf: ic.buf, naive: ic.naive}
		we = &le.we
		ic.byLen[length] = we
	}
	word, err := we.encode(start)
	if err != nil {
		return 0, err
	}
	return ic.codec.Pack(word), nil
}
