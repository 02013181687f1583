package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"grammarviz"
)

// analyzeResp is the part of an analyze response the benchmark reads.
// distance_calls is left out on purpose: it varies between runs whenever
// the search runs on more than one worker.
type analyzeResp struct {
	N         int                  `json:"n"`
	Partial   bool                 `json:"partial"`
	Fallback  bool                 `json:"fallback"`
	CacheHit  bool                 `json:"cache_hit"`
	Discords  []grammarviz.Discord `json:"discords"`
	Anomalies []grammarviz.Anomaly `json:"anomalies"`
	Ensemble  *struct {
		Score []float64 `json:"scores"`
		Used  int       `json:"members_used"`
	} `json:"ensemble"`
}

// answer is what the output check compares between gvad and the library:
// density minima, discords (start, end, distance) and ensemble scores.
type answer struct {
	N                 int
	Partial, Fallback bool
	Anomalies         []grammarviz.Anomaly
	Discords          []discordKey
	Scores            []float64
	Used              int
}

type discordKey struct {
	Start, End int
	Distance   float64
}

func discordKeys(ds []grammarviz.Discord) []discordKey {
	if len(ds) == 0 {
		return nil
	}
	out := make([]discordKey, len(ds))
	for i, d := range ds {
		out[i] = discordKey{d.Start, d.End, d.Distance}
	}
	return out
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func (r *analyzeResp) answer() answer {
	a := answer{
		N: r.N, Partial: r.Partial, Fallback: r.Fallback,
		Anomalies: nilIfEmpty(r.Anomalies),
		Discords:  discordKeys(r.Discords),
	}
	if r.Ensemble != nil {
		a.Scores, a.Used = nilIfEmpty(r.Ensemble.Score), r.Ensemble.Used
	}
	return a
}

// libraryAnswer computes the answer the library gives for ts under the
// workload's request parameters.
func libraryAnswer(w workload, ts []float64) (answer, error) {
	a := answer{N: len(ts)}
	if w.mode == "ensemble" {
		res, err := grammarviz.EnsembleDensity(ts, grammarviz.EnsembleOptions{Members: w.members, Seed: w.ensSeed, Workers: 1})
		if err != nil {
			return a, err
		}
		a.Scores, a.Used = nilIfEmpty(res.Score), res.Used
		return a, nil
	}
	det, err := grammarviz.New(ts, grammarviz.Options{Window: w.window, PAA: w.paa, Alphabet: w.alphabet, Workers: 1})
	if err != nil {
		return a, err
	}
	switch w.mode {
	case "density":
		a.Anomalies = nilIfEmpty(det.GlobalMinima())
	case "rra":
		res, err := det.DiscordsCtx(context.Background(), w.k)
		if err != nil {
			return a, err
		}
		a.Discords = discordKeys(res.Discords)
	}
	return a, nil
}

// variant is one distinct answer seen for one series, with how many ops
// returned it.
type variant struct {
	a     answer
	count int
}

// variants collects, per series index, every distinct answer gvad gave.
// Identical answers are folded, so memory stays bounded by the pool.
type variants map[int][]*variant

func (v variants) add(idx int, a answer) {
	for _, x := range v[idx] {
		if reflect.DeepEqual(x.a, a) {
			x.count++
			return
		}
	}
	v[idx] = append(v[idx], &variant{a: a, count: 1})
}

func (v variants) merge(o variants) {
	for idx, xs := range o {
		for _, x := range xs {
			for i := 0; i < x.count; i++ {
				v.add(idx, x.a)
			}
		}
	}
}

// checkAnalyze compares every answer gvad gave with the library's answer
// for the same series. It returns the number of ops whose answer differed
// and a description of the first differences.
func checkAnalyze(w workload, series [][]float64, seen variants) (bad int, errs []string) {
	idxs := make([]int, 0, len(seen))
	for idx := range seen {
		idxs = append(idxs, idx)
	}
	want := make([]answer, len(idxs))
	libErr := make([]error, len(idxs))
	parallel(len(idxs), func(i int) {
		want[i], libErr[i] = libraryAnswer(w, series[idxs[i]])
	})
	for i, idx := range idxs {
		for _, x := range seen[idx] {
			switch {
			case libErr[i] != nil:
				bad += x.count
				errs = append(errs, fmt.Sprintf("series %d: library: %v", idx, libErr[i]))
			case !reflect.DeepEqual(x.a, want[i]):
				bad += x.count
				errs = append(errs, fmt.Sprintf("series %d: %d ops answered %s, library %s", idx, x.count, brief(x.a), brief(want[i])))
			}
		}
	}
	return bad, errs
}

func brief(a answer) string {
	return fmt.Sprintf("{n=%d partial=%v fallback=%v anomalies=%v discords=%v scores=%d used=%d}",
		a.N, a.Partial, a.Fallback, a.Anomalies, a.Discords, len(a.Scores), a.Used)
}

// sessionFinal is a session generation's last observed state.
type sessionFinal struct {
	session, gen int
	sent         int // points the client appended
	len          int // length gvad reported
	anomalies    []grammarviz.Anomaly
}

// checkSessions feeds a library Stream the points of every finished
// session generation and compares its length and anomalies with what
// gvad reported.
func checkSessions(w workload, seed int64, finals []sessionFinal) (bad int, errs []string) {
	msgs := make([]string, len(finals))
	parallel(len(finals), func(i int) {
		f := finals[i]
		pts := w.genPoints(seed, f.session, f.gen)
		if f.len != f.sent || f.sent > len(pts) {
			msgs[i] = fmt.Sprintf("session %d gen %d: gvad length %d, %d points sent", f.session, f.gen, f.len, f.sent)
			return
		}
		st, err := grammarviz.NewStream(grammarviz.Options{Window: w.window, PAA: w.paa, Alphabet: w.alphabet})
		if err != nil {
			msgs[i] = err.Error()
			return
		}
		for _, v := range pts[:f.len] {
			if _, _, err := st.Append(v); err != nil {
				msgs[i] = err.Error()
				return
			}
		}
		an, err := st.Anomalies()
		if err != nil {
			msgs[i] = err.Error()
			return
		}
		if !reflect.DeepEqual(nilIfEmpty(an), nilIfEmpty(f.anomalies)) {
			msgs[i] = fmt.Sprintf("session %d gen %d (len %d): gvad anomalies %v, library %v", f.session, f.gen, f.len, f.anomalies, an)
		}
	})
	for _, m := range msgs {
		if m != "" {
			bad++
			errs = append(errs, m)
		}
	}
	return bad, errs
}

// parallel runs f(0..n-1) on as many goroutines as there are client
// connections, after the timed phase has ended.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
