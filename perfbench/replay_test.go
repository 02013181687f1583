package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"grammarviz/internal/core"
	"grammarviz/internal/discord"
	"grammarviz/internal/ensemble"
	"grammarviz/internal/memlog"
	"grammarviz/internal/server"
)

var testSeeds = []int64{1, 2, 3}

// smallBench returns the workload's bench with only the first few series
// of its pool, enough for the replay to be compared op by op.
func smallBench(t *testing.T, name string, seed int64, pool int) *bench {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if !w.session {
		w.pool = pool
	}
	return newBench(w, seed, "", t.TempDir())
}

func serveAnalyze(t *testing.T, h http.Handler, body []byte) analyzeResp {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var r analyzeResp
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplayMatchesPipeline pins the replayed analysis to core.AnalyzeCtx,
// the Workers=1 RRA search and gvad's own answers.
func TestReplayMatchesPipeline(t *testing.T) {
	for _, seed := range testSeeds {
		for _, name := range []string{"analyze-cold", "analyze-warm"} {
			b := smallBench(t, name, seed, 2)
			w := b.w
			h := server.New(server.Config{}).Handler()
			rp := newReplayer(w, t.TempDir())
			for i, ts := range b.series {
				tr := newTracer(64)
				got, err := pipeline(tr, ts, w.params(), 1)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.AnalyzeCtx(context.Background(), ts, core.Config{Params: w.params(), Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got.rules.NumRules() != want.Rules.NumRules() || got.grammar.String() != want.Grammar.String() {
					t.Errorf("%s seed %d series %d: replay induced %d rules, core %d", name, seed, i, got.rules.NumRules(), want.Rules.NumRules())
				}
				if !reflect.DeepEqual(got.density, want.Density) {
					t.Errorf("%s seed %d series %d: density curves differ", name, seed, i)
				}
				if w.mode == "rra" {
					wantRes, err := want.DiscordsCtx(context.Background(), w.k)
					if err != nil {
						t.Fatal(err)
					}
					gotRes, err := discord.RRAParallelStatsCodedCtx(context.Background(), discord.NewStats(ts), got.rules, w.k, 0, 1, w.params())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotRes, wantRes) {
						t.Errorf("seed %d series %d: replayed search %+v, core %+v", seed, i, gotRes, wantRes)
					}
				}
				// The full op replay must answer what gvad answers, on the
				// miss and, for density, on the following hit.
				ans, err := rp.analyze(newTracer(64), i, ts, false)
				if err != nil {
					t.Fatal(err)
				}
				resp := serveAnalyze(t, h, w.analyzeBody(ts, 1))
				if resp.CacheHit || !reflect.DeepEqual(ans, resp.answer()) {
					t.Errorf("%s seed %d series %d: replay %s, gvad %s (hit %v)", name, seed, i, brief(ans), brief(resp.answer()), resp.CacheHit)
				}
				if w.mode == "density" {
					rp.cached[i] = got
					ans, err := rp.analyze(newTracer(64), i, ts, true)
					if err != nil {
						t.Fatal(err)
					}
					resp := serveAnalyze(t, h, w.analyzeBody(ts, 1))
					if !resp.CacheHit || !reflect.DeepEqual(ans, resp.answer()) {
						t.Errorf("density seed %d series %d hit: replay %s, gvad %s (hit %v)", seed, i, brief(ans), brief(resp.answer()), resp.CacheHit)
					}
				}
			}
		}
	}
}

// TestReplayMatchesEnsemble pins the replayed ensemble, fusion included,
// to ensemble.Induce and to gvad's scores.
func TestReplayMatchesEnsemble(t *testing.T) {
	for _, seed := range testSeeds {
		b := smallBench(t, "ensemble-cold", seed, 1)
		w := b.w
		ts := b.series[0]
		got, err := replayEnsemble(newTracer(128), ts, w.members, w.ensSeed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ensemble.Induce(context.Background(), ts, ensemble.Config{Members: w.members, Seed: w.ensSeed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: replayed ensemble differs from ensemble.Induce (used %d vs %d)", seed, got.Used, want.Used)
		}
		resp := serveAnalyze(t, server.New(server.Config{}).Handler(), w.analyzeBody(ts, 1))
		if resp.Ensemble == nil || !reflect.DeepEqual(resp.Ensemble.Score, got.Score) {
			t.Errorf("seed %d: gvad scores differ from the replay", seed)
		}
	}
}

// TestReplayMatchesSessions runs the traced session workload against an
// in-process gvad and checks that each open session's checkpoint, as gvad
// persists it, is byte-identical to the replay mirror's.
func TestReplayMatchesSessions(t *testing.T) {
	for _, seed := range testSeeds {
		b := smallBench(t, "session-append", seed, 0)
		b.w.sessions = 2 // about 200 appends each: past the first compaction
		srv, rp := b.traceServer()
		res, err := b.traceOn(srv, rp, 420)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed > 0 {
			t.Fatalf("seed %d: %v", seed, res.problems)
		}
		compacted := 0
		for _, s := range res.spans {
			if s.Name == "checkpoint.encode" {
				compacted++
			}
		}
		if compacted == 0 {
			t.Fatalf("seed %d: no compaction in the traced run", seed)
		}
		if err := srv.CheckpointSessions(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv.CloseSessions()
		if len(rp.mirrors) != b.w.sessions {
			t.Fatalf("seed %d: %d mirrors for %d sessions", seed, len(rp.mirrors), b.w.sessions)
		}
		for id, m := range rp.mirrors {
			log, rec, err := memlog.Open(filepath.Join(b.dir, "trace", "state", id), memlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_ = log.Close() // opened only to read
			want, err := m.stream.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Snapshot, want) || len(rec.Records) != 0 {
				t.Errorf("seed %d session %s: gvad checkpoint (%d bytes, %d records after) differs from the replay's (%d bytes)",
					seed, id, len(rec.Snapshot), len(rec.Records), len(want))
			}
		}
		rp.closeMirrors()
	}
}

// traceCounts are the per-layer counts that must repeat exactly.
var traceCounts = []string{"sax.words", "sequitur.rules", "grammar.candidates", "discord.dist_calls", "discord.pruned"}

// TestTraceCountsDeterministic runs each workload's traced run twice at
// one seed and once at another: the counts repeat exactly at the same
// seed, and the other seed gives different inputs of the same shape.
func TestTraceCountsDeterministic(t *testing.T) {
	ops := map[string]int{"analyze-warm": 24, "analyze-cold": 6, "ensemble-cold": 3, "session-append": 300}
	for _, w := range workloads {
		run := func(seed int64) (*traceResult, map[string]metricVal) {
			b := smallBench(t, w.name, seed, min(w.pool, 8))
			tr, err := b.traceRun(ops[w.name])
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed > 0 {
				t.Fatalf("%s seed %d: %v", w.name, seed, tr.problems)
			}
			return tr, perLayer(tr, &loadResult{})
		}
		tr1, a := run(1)
		_, b := run(1)
		tr2, c := run(2)
		for _, name := range traceCounts {
			if a[name] != b[name] {
				t.Errorf("%s: %s %v then %v at one seed", w.name, name, a[name].Value, b[name].Value)
			}
		}
		if tr1.ops != tr2.ops || tr1.hits != tr2.hits || opMix(tr1) != opMix(tr2) {
			t.Errorf("%s: seeds 1 and 2 differ in shape: ops %d/%d, hits %d/%d, mix %v/%v",
				w.name, tr1.ops, tr2.ops, tr1.hits, tr2.hits, opMix(tr1), opMix(tr2))
		}
		if !w.session && a["sax.words"] == c["sax.words"] && a["server.req_kb"] == c["server.req_kb"] {
			t.Errorf("%s: seed 2 gave the same inputs as seed 1", w.name)
		}
		if w.session && reflect.DeepEqual(w.genPoints(1, 0, 0), w.genPoints(2, 0, 0)) {
			t.Errorf("%s: seed 2 gave the same points as seed 1", w.name)
		}
	}
}

// opMix counts the traced requests by method and route shape.
func opMix(tr *traceResult) [4]int {
	var mix [4]int // analyze or append, poll, open, delete
	for _, s := range tr.spans {
		switch s.Name {
		case "memlog.append", "grammarviz.fingerprint":
			mix[0]++
		case "stream.anomalies":
			mix[1]++
		case "stream.open":
			mix[2]++
		case "memlog.close":
			mix[3]++
		}
	}
	return mix
}

// Inputs must stay in the shape the workloads promise.
func TestInputs(t *testing.T) {
	w, _ := findWorkload("session-append")
	for s := 0; s < w.sessions; s++ {
		if n := w.genLen(s, 0); n < 1 || n > w.genChunks {
			t.Errorf("session %d: first generation of %d appends", s, n)
		}
	}
	if w.genChunks*w.chunk >= sessionCap {
		t.Errorf("a generation of %d points would reach the session cap", w.genChunks*w.chunk)
	}
	body := appendBody(nil, []float64{0.1, -2.5e-07, 3}, 512)
	var r struct {
		Offset int       `json:"offset"`
		Points []float64 `json:"points"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.Offset != 512 || !reflect.DeepEqual(r.Points, []float64{0.1, -2.5e-07, 3}) {
		t.Errorf("appendBody: %s decodes to %+v, %v", body, r, err)
	}
	if !reflect.DeepEqual(encodePoints([]float64{1.5}), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x3f}) {
		t.Error("encodePoints is not little-endian float64 bits")
	}
}
