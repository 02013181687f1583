package main

import (
	"math"
	"math/rand"
)

// Inputs are noisy sines with one planted anomaly: a stretch of roughly
// one and a half periods where the signal switches to a faster, damped
// oscillation. Every value derives from (seed, stream id), so the same
// seed gives the same inputs and different stream ids give different,
// equally shaped series.

// rng returns the generator for one input stream of one run.
func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*7_919 + 17))
}

// noisySine returns an n-point noisy sine with a planted anomaly in the
// middle half of the series.
func noisySine(r *rand.Rand, n int) []float64 {
	period := 100 + 40*r.Float64()
	phase := 2 * math.Pi * r.Float64()
	alen := int(1.5 * period)
	at := n/4 + r.Intn(max(1, n/2-alen))
	ts := make([]float64, n)
	for i := range ts {
		x := 2*math.Pi*float64(i)/period + phase
		v := math.Sin(x)
		if i >= at && i < at+alen {
			v = 0.5 * math.Sin(3*x)
		}
		ts[i] = v + 0.1*r.NormFloat64()
	}
	return ts
}

// Stream ids keep every input of a run distinct: analyze pools use the
// series index, session generations sit above them.
const sessionStreamBase = 1 << 20

// sessionStreamID names the points of one session generation.
func sessionStreamID(session, gen int) int64 {
	return sessionStreamBase + int64(session)*1_000 + int64(gen)
}
