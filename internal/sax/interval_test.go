package sax

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkIntervalCodes compares ic.Code with the naive Encoder.EncodeCode
// for every subsequence at start (all lengths from PAA up) and every
// subsequence of length (all starts), in that order, so one coder meets
// many lengths, in both growing and repeated order.
func checkIntervalCodes(t *testing.T, ts []float64, p Params, start, length int) {
	t.Helper()
	ic, err := NewIntervalCoder(ts, p)
	if err != nil {
		t.Fatalf("NewIntervalCoder: %v", err)
	}
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	check := func(s, l int) {
		want, err := enc.EncodeCode(ts[s : s+l])
		if err != nil {
			t.Fatalf("EncodeCode(%d, %d): %v", s, l, err)
		}
		got, err := ic.Code(s, l)
		if err != nil {
			t.Fatalf("Code(%d, %d): %v", s, l, err)
		}
		if got != want {
			t.Fatalf("Code(%d, %d) = %s, EncodeCode = %s (paa %d, alphabet %d)",
				s, l, ic.codec.Decode(got), ic.codec.Decode(want), p.PAA, p.Alphabet)
		}
	}
	for l := p.PAA; start+l <= len(ts); l++ {
		check(start, l)
	}
	for s := 0; s+length <= len(ts); s++ {
		check(s, length)
	}
}

// TestIntervalCoderMatchesEncoder runs the differential check over noisy
// sines at several word shapes, including lengths equal to the word
// length and lengths that are not a multiple of it.
func TestIntervalCoderMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := make([]float64, 400)
	for i := range ts {
		ts[i] = math.Sin(float64(i)/9) + 0.3*rng.NormFloat64()
	}
	for _, p := range []Params{
		{PAA: 1, Alphabet: 2}, {PAA: 3, Alphabet: 3}, {PAA: 4, Alphabet: 4},
		{PAA: 5, Alphabet: 7}, {PAA: 8, Alphabet: 8},
	} {
		checkIntervalCodes(t, ts, p, 17, p.PAA)
		checkIntervalCodes(t, ts, p, 0, 2*p.PAA+1)
	}
}

// TestIntervalCoderFlatRunKeyedByLength pins why constant runs are
// cached per length: a run of 0.1 has the word cccc at 14 points and bbbb
// at 15 (the rounding of its mean flips the sign of every centered value
// at alphabet 4), so a cache keyed by value alone would answer the second
// length with the first length's word.
func TestIntervalCoderFlatRunKeyedByLength(t *testing.T) {
	ts := make([]float64, 40)
	for i := range ts {
		ts[i] = 0.1
	}
	p := Params{PAA: 4, Alphabet: 4}
	ic, err := NewIntervalCoder(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := NewEncoder(p)
	short, _ := ic.Code(0, 14)
	long, _ := ic.Code(3, 15)
	for _, c := range []struct {
		code  uint64
		start int
		n     int
	}{{short, 0, 14}, {long, 3, 15}} {
		want, _ := enc.EncodeCode(ts[c.start : c.start+c.n])
		if c.code != want {
			t.Fatalf("Code(%d, %d) = %s, EncodeCode = %s", c.start, c.n, ic.codec.Decode(c.code), ic.codec.Decode(want))
		}
	}
	if short == long {
		t.Fatal("the two run lengths encode alike; the test no longer pins the length key")
	}
}

func TestIntervalCoderErrors(t *testing.T) {
	ts := make([]float64, 20)
	if _, err := NewIntervalCoder(ts, Params{PAA: 40, Alphabet: 26}); err == nil {
		t.Fatal("a word shape that does not pack was accepted")
	}
	ic, err := NewIntervalCoder(ts, Params{PAA: 4, Alphabet: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{0, 3}, {-1, 5}, {16, 5}} {
		if _, err := ic.Code(c[0], c[1]); err == nil {
			t.Fatalf("Code(%d, %d) accepted", c[0], c[1])
		}
	}
}

// intervalSeed builds a FuzzIntervalCode input: the header bytes select
// PAA 1+paaByte%8 and alphabet 2+alphaByte%9 (see fuzzSeries), followed
// by the values' raw bits. The seeds below note the shape they select.
func intervalSeed(paaByte, alphaByte byte, vals ...float64) []byte {
	b := []byte{0, paaByte, alphaByte}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// FuzzIntervalCode cross-checks IntervalCoder against the naive encoder
// on arbitrary series: every subsequence at the fuzzed start and every
// subsequence of the fuzzed length must encode byte-identically.
func FuzzIntervalCode(f *testing.F) {
	wave := make([]float64, 30)
	for i := range wave {
		wave[i] = math.Sin(float64(i) / 3)
	}
	// Flat runs of several lengths with the same value (0.1 flips word
	// between 14 and 15 points at alphabet 4), next to a changing tail:
	// PAA 4 / alphabet 4, and PAA 3 / alphabet 3.
	f.Add(intervalSeed(3, 2, append(repeat(0.1, 24), 1, 2, 0.1, 0.1)...), uint16(0), uint16(15))
	f.Add(intervalSeed(2, 1, append(repeat(0.1, 20), wave...)...), uint16(2), uint16(7))
	// Values near 1e154: the squared prefix sums overflow (forceNaive);
	// PAA 4, length 4.
	huge := []float64{1.3e154, -1.2e154, 1.31e154, 9e153, -1.3e154, 1.1e154, 1.3e154, -5e153}
	f.Add(intervalSeed(3, 1, huge...), uint16(1), uint16(4))
	// Length == PAA (5), and lengths that are not a multiple of it (7 at
	// PAA 3, 11 at PAA 4).
	f.Add(intervalSeed(4, 5, wave...), uint16(3), uint16(5))
	f.Add(intervalSeed(2, 1, wave...), uint16(0), uint16(7))
	f.Add(intervalSeed(3, 5, wave...), uint16(5), uint16(11))
	// Negative zero among zeros, at alphabets 3 (PAA 3) and 7 (PAA 2).
	negz := []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 0, 1, -1, math.Copysign(0, -1), 0}
	f.Add(intervalSeed(2, 1, negz...), uint16(0), uint16(3))
	f.Add(intervalSeed(1, 5, negz...), uint16(1), uint16(4))
	f.Fuzz(func(t *testing.T, data []byte, start, length uint16) {
		p, ts := fuzzSeries(data)
		if len(ts) == 0 || len(ts) > 512 {
			return
		}
		p.Window = 0
		if p.PAA > len(ts) {
			p.PAA = len(ts)
		}
		s := int(start) % len(ts)
		l := int(length)
		if l < p.PAA || l > len(ts) {
			l = p.PAA + l%(len(ts)-p.PAA+1)
		}
		if s+l > len(ts) {
			s = len(ts) - l
		}
		checkIntervalCodes(t, ts, p, s, l)
	})
}
