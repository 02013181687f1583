package main

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// workload is one traffic mix. Analyze workloads POST /v1/analyze bodies
// drawn from a pool of distinct series; the session workload streams
// chunks into durable sessions.
type workload struct {
	name    string
	session bool

	// Analyze workloads.
	mode     string
	n        int  // points per series
	pool     int  // distinct series
	random   bool // pick series at random (else cycle the pool in order)
	prefill  bool // analyze every series once during set-up
	window   int
	paa      int
	alphabet int
	k        int   // discords (rra)
	members  int   // ensemble members
	ensSeed  int64 // ensemble sampler seed

	// Session workload.
	sessions  int
	chunk     int // points per append
	pollEvery int // appends per client between anomaly polls
	genChunks int // appends before a session is closed and reopened

	// traceOps is the fixed op count of the traced run, so its counts
	// repeat exactly between runs of one seed.
	traceOps int
}

const clients = 2 // concurrent closed-loop client connections

var workloads = []workload{
	{
		name: "analyze-warm", mode: "density", n: 20_000, pool: 8, random: true, prefill: true,
		window: 120, paa: 4, alphabet: 4, traceOps: 256,
	},
	{
		name: "analyze-cold", mode: "rra", n: 10_000, pool: 256,
		window: 120, paa: 4, alphabet: 4, k: 2, traceOps: 96,
	},
	{
		name: "ensemble-cold", mode: "ensemble", n: 4_000, pool: 256,
		members: 20, ensSeed: 1, traceOps: 48,
	},
	{
		name: "session-append", session: true, sessions: 16, chunk: 256, pollEvery: 64, genChunks: 512,
		window: 120, paa: 4, alphabet: 4, traceOps: 3_072,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// analyzeBody is the JSON body of one analyze request. workers is 0 (all
// cores, the server default) under load and 1 in the traced run.
func (w workload) analyzeBody(series []float64, workers int) []byte {
	req := map[string]any{"mode": w.mode, "series": series}
	if w.mode == "ensemble" {
		req["members"] = w.members
		req["seed"] = w.ensSeed
	} else {
		req["window"], req["paa"], req["alphabet"] = w.window, w.paa, w.alphabet
		if w.k > 0 {
			req["k"] = w.k
		}
	}
	if workers > 0 {
		req["workers"] = workers
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // only finite floats reach here
	}
	return b
}

// analyzeInputs builds the pool's series and bodies during set-up.
func (w workload) analyzeInputs(seed int64, workers int) (series [][]float64, bodies [][]byte) {
	series = make([][]float64, w.pool)
	bodies = make([][]byte, w.pool)
	for i := range series {
		series[i] = noisySine(rng(seed, int64(i)), w.n)
		bodies[i] = w.analyzeBody(series[i], workers)
	}
	return series, bodies
}

// genLen is the number of appends session s makes in generation gen. The
// first generation is staggered across sessions so rotations, and with
// them session lengths, spread evenly over the run.
func (w workload) genLen(s, gen int) int {
	if gen == 0 {
		return w.genChunks * (s + 1) / w.sessions
	}
	return w.genChunks
}

// genPoints returns every point session s appends in generation gen.
func (w workload) genPoints(seed int64, s, gen int) []float64 {
	return noisySine(rng(seed, sessionStreamID(s, gen)), w.genLen(s, gen)*w.chunk)
}

// appendBody encodes one append request by hand into buf: it is built per
// op, and shortest round-trip formatting makes the server decode exactly
// these points.
func appendBody(buf []byte, points []float64, offset int) []byte {
	buf = append(buf[:0], `{"offset":`...)
	buf = strconv.AppendInt(buf, int64(offset), 10)
	buf = append(buf, `,"points":[`...)
	for i, v := range points {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, "]}"...)
}

func (w workload) openBody() []byte {
	return []byte(fmt.Sprintf(`{"window":%d,"paa":%d,"alphabet":%d}`, w.window, w.paa, w.alphabet))
}
