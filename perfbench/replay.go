package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"grammarviz"
	"grammarviz/internal/density"
	"grammarviz/internal/discord"
	"grammarviz/internal/ensemble"
	"grammarviz/internal/grammar"
	"grammarviz/internal/memlog"
	"grammarviz/internal/sax"
	"grammarviz/internal/sequitur"
	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// The replay re-runs, on the op's own input, the public calls of each
// layer that gvad's handler made for the op, with a span around each call.
// It mirrors these paths at Workers=1:
//
//   - core.AnalyzeCtxWS: discretize, induce, rule map, density curve;
//   - ensemble.InduceParams: member pipelines, then fusion;
//   - the analyze handler: fingerprint, cache hit or miss, then minima
//     or the RRA search;
//   - the session handlers: WAL append, stream append, compaction, polls.
//
// replay_test.go pins every product of the replay to what the library and
// the server produce, so a rerouted pipeline fails the test instead of
// being timed stale.

// products are the retained results of one analysis pipeline.
type products struct {
	grammar *sequitur.Grammar
	rules   *grammar.RuleSet
	density []int
}

// replayer holds what the replay needs across ops: the workload, the
// pipelines of series gvad has cached since set-up, and the mirror of
// every open session.
type replayer struct {
	w       workload
	cached  map[int]*products  // by series index, filled during set-up
	mirrors map[string]*mirror // by gvad session id
	dir     string             // mirror session logs live here
}

func newReplayer(w workload, dir string) *replayer {
	return &replayer{w: w, cached: make(map[int]*products), mirrors: make(map[string]*mirror), dir: dir}
}

// closeMirrors closes every mirror log still open.
func (rp *replayer) closeMirrors() {
	for id, m := range rp.mirrors {
		_ = m.log.Close() // the mirror is a throwaway copy
		delete(rp.mirrors, id)
	}
}

func (w workload) params() sax.Params {
	return sax.Params{Window: w.window, PAA: w.paa, Alphabet: w.alphabet}
}

// pipeline replays core.AnalyzeCtxWS with the given discretization
// workers.
func pipeline(t *tracer, ts []float64, p sax.Params, workers int) (*products, error) {
	ws := workspace.Get()
	defer workspace.Put(ws)
	if err := timeseries.ValidateFinite(ts); err != nil {
		return nil, err
	}
	t.begin("sax.discretize")
	d, err := sax.DiscretizeCtx(context.Background(), ts, p, sax.ReductionExact, workers)
	if err != nil {
		t.end(0, 0)
		return nil, err
	}
	t.end(int64(len(d.Words)), 0)

	t.begin("sequitur.induce")
	g := induce(d, ws.Inducer)
	t.end(int64(g.NumRules()), 0)

	t.begin("grammar.build")
	rs, err := grammar.Build(d, g)
	if err != nil {
		t.end(0, 0)
		return nil, err
	}
	intervals := 0
	for i := range rs.Records {
		intervals += len(rs.Records[i].Occurrences)
	}
	t.end(int64(intervals), 0)

	t.begin("density.curve")
	curve := density.CurveWith(rs, ws.DiffScratch(rs.SeriesLen+1))
	t.end(0, 0)
	return &products{grammar: g, rules: rs, density: curve}, nil
}

// induce replays core's induction: packed word codes when the
// discretization carries them, strings otherwise.
func induce(d *sax.Discretization, in *sequitur.Inducer) *sequitur.Grammar {
	if d.Coded {
		codec := sax.NewWordCodec(d.Params.PAA, d.Params.Alphabet)
		in.ResetCodes(codec.Decode)
		for i := range d.Words {
			in.AppendCode(d.Words[i].Code)
		}
	} else {
		in.ResetStrings()
		for i := range d.Words {
			in.Append(d.Words[i].Str)
		}
	}
	return in.Grammar()
}

// globalMinima replays Detector.GlobalMinima.
func globalMinima(curve []int, window int) []grammarviz.Anomaly {
	minima := density.GlobalMinimaMargin(curve, window-1)
	out := make([]grammarviz.Anomaly, len(minima))
	for i, iv := range minima {
		v := float64(curve[iv.Start])
		out[i] = grammarviz.Anomaly{Start: iv.Start, End: iv.End, MeanDensity: v, MinDensity: int(v)}
	}
	return out
}

// analyze replays one analyze op on series idx. hit says whether gvad
// answered from its cache, which decides the branch replayed.
func (rp *replayer) analyze(t *tracer, idx int, ts []float64, hit bool) (answer, error) {
	w := rp.w
	a := answer{N: len(ts)}
	if w.mode == "ensemble" {
		t.begin("grammarviz.fingerprint")
		grammarviz.EnsembleFingerprint(ts, grammarviz.EnsembleOptions{Members: w.members, Seed: w.ensSeed, Workers: 1})
		t.end(0, 0)
		if hit {
			return a, fmt.Errorf("series %d: ensemble cache hit has no replay", idx)
		}
		t.begin("ensemble.induce")
		res, err := replayEnsemble(t, ts, w.members, w.ensSeed)
		if err != nil {
			t.end(0, 0)
			return a, err
		}
		res.Minima(0.3)
		t.end(int64(res.Used), int64(len(res.Members)-res.Used))
		a.Scores, a.Used = nilIfEmpty(res.Score), res.Used
		return a, nil
	}

	t.begin("grammarviz.fingerprint")
	grammarviz.Fingerprint(ts, grammarviz.Options{Window: w.window, PAA: w.paa, Alphabet: w.alphabet, Workers: 1})
	t.end(0, 0)
	p := rp.cached[idx]
	if hit && p == nil {
		return a, fmt.Errorf("series %d: cache hit on a series the replay never analyzed", idx)
	}
	if !hit {
		var err error
		if p, err = pipeline(t, ts, w.params(), 1); err != nil {
			return a, err
		}
	}
	switch w.mode {
	case "density":
		t.begin("density.minima")
		a.Anomalies = nilIfEmpty(globalMinima(p.density, w.window))
		t.end(0, 0)
	case "rra":
		t.begin("discord.search")
		res, err := discord.RRAParallelStatsCodedCtx(context.Background(), discord.NewStats(ts), p.rules, w.k, 0, 1, w.params())
		t.end(res.DistCalls, res.Pruned)
		if err != nil {
			return a, err
		}
		ds := make([]grammarviz.Discord, len(res.Discords))
		for i, d := range res.Discords {
			ds[i] = grammarviz.Discord{Start: d.Interval.Start, End: d.Interval.End, Distance: d.Dist}
		}
		a.Discords = discordKeys(ds)
	default:
		return a, fmt.Errorf("mode %q has no replay", w.mode)
	}
	return a, nil
}

// replayEnsemble replays ensemble.Induce at Workers=1: members run one
// after another, each with an unbounded inner pipeline, then fuse.
func replayEnsemble(t *tracer, ts []float64, members int, seed int64) (*ensemble.Result, error) {
	if members <= 0 {
		members = ensemble.DefaultMembers
	}
	params := ensemble.Sample(len(ts), members, seed)
	curves := make([][]int, len(params))
	for mi, p := range params {
		if p.Validate(len(ts)) != nil {
			continue
		}
		pr, err := pipeline(t, ts, p, 0)
		if err != nil {
			continue // this member contributes nothing
		}
		curves[mi] = pr.density
	}
	res := fuse(len(ts), params, curves)
	if res == nil {
		return nil, ensemble.ErrNoValidMembers
	}
	return res, nil
}

// fuse replays the ensemble's fusion: each member curve normalized by its
// own maximum, averaged in member order, with per-point agreement votes.
func fuse(n int, params []sax.Params, curves [][]int) *ensemble.Result {
	res := &ensemble.Result{
		Score:     make([]float64, n),
		Agreement: make([]float64, n),
		Members:   make([]ensemble.Member, len(params)),
	}
	for mi, curve := range curves {
		res.Members[mi] = ensemble.Member{Params: params[mi]}
		if curve == nil {
			continue
		}
		peak, sum := 0, 0
		for _, v := range curve {
			peak = max(peak, v)
			sum += v
		}
		if peak == 0 {
			continue
		}
		inv := 1 / float64(peak)
		for i, v := range curve {
			res.Score[i] += float64(v) * inv
		}
		voteAt := ensemble.AgreementFraction * float64(sum) / float64(len(curve))
		for i, v := range curve {
			if float64(v) <= voteAt {
				res.Agreement[i]++
			}
		}
		res.Members[mi].Used = true
		res.Used++
		res.MaxWindow = max(res.MaxWindow, params[mi].Window)
	}
	if res.Used == 0 {
		return nil
	}
	inv := 1 / float64(res.Used)
	for i := range res.Score {
		res.Score[i] *= inv
		res.Agreement[i] *= inv
	}
	return res
}

// mirror is the replay's copy of one gvad session: a library Stream and a
// write-ahead log opened with gvad's options, so it compacts exactly when
// gvad does.
type mirror struct {
	stream *grammarviz.Stream
	log    *memlog.Log
	dir    string
}

func (rp *replayer) openMirror(t *tracer, name string) (*mirror, error) {
	m := &mirror{dir: filepath.Join(rp.dir, name)}
	t.begin("stream.open")
	st, err := grammarviz.NewStream(grammarviz.Options{Window: rp.w.window, PAA: rp.w.paa, Alphabet: rp.w.alphabet})
	t.end(0, 0)
	if err != nil {
		return nil, err
	}
	t.begin("memlog.open")
	log, _, err := memlog.Open(m.dir, memlog.Options{Policy: memlog.SyncInterval})
	t.end(0, 0)
	if err != nil {
		return nil, err
	}
	m.stream, m.log = st, log
	return m, nil
}

func (m *mirror) close(t *tracer) error {
	t.begin("memlog.close")
	err := m.log.Close()
	if rerr := os.RemoveAll(m.dir); err == nil {
		err = rerr
	}
	t.end(0, 0)
	return err
}

// appendResult is what the append replay produced, for comparison with
// gvad's response.
type appendResult struct {
	len                 int
	events              int
	lastScore, maxScore float64
	compacted           bool
}

// append replays one session append: WAL first, then the stream, then
// compaction when the log has outgrown its snapshot.
func (m *mirror) append(t *tracer, points []float64) (appendResult, error) {
	var r appendResult
	payload := encodePoints(points)
	t.begin("memlog.append")
	err := m.log.Append(payload)
	t.end(int64(len(payload)), 0)
	if err != nil {
		return r, err
	}
	t.begin("stream.append")
	for _, v := range points {
		ev, ok, err := m.stream.Append(v)
		if err != nil {
			t.end(0, 0)
			return r, err
		}
		if ok {
			r.events++
			r.lastScore = ev.Novelty
			r.maxScore = math.Max(r.maxScore, ev.Novelty)
		}
	}
	t.end(int64(len(points)), 0)
	r.len = m.stream.Len()
	if m.log.ShouldCompact() {
		t.begin("checkpoint.encode")
		frame, err := m.stream.Checkpoint()
		t.end(int64(len(frame)), 0)
		if err != nil {
			return r, err
		}
		t.begin("memlog.snapshot")
		err = m.log.SaveSnapshot(frame)
		t.end(int64(len(frame)), 0)
		if err != nil {
			return r, err
		}
		r.compacted = true
	}
	return r, nil
}

// anomalies replays the anomalies poll: the handler snapshots the stream
// twice, once for the density curve and once for the minima.
func (m *mirror) anomalies(t *tracer) ([]grammarviz.Anomaly, error) {
	t.begin("stream.anomalies")
	defer t.end(0, 0)
	if _, err := m.stream.RuleDensity(); err != nil {
		return nil, err
	}
	return m.stream.Anomalies()
}

// encodePoints is the session WAL's record format: little-endian float64
// bits.
func encodePoints(points []float64) []byte {
	buf := make([]byte, 0, 8*len(points))
	for _, v := range points {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}
