package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"time"

	"grammarviz"
	"grammarviz/internal/memlog"
	"grammarviz/internal/server"
)

// span is one timed interval of the traced run. Work and Skipped are the
// counts recorded at the layer boundary: words, rules, rule intervals,
// distance calls and pruned comparisons, members used and unused, bytes.
type span struct {
	Op      int    `json:"op"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Alloc   uint64 `json:"alloc_bytes"`
	Work    int64  `json:"work,omitempty"`
	Skipped int64  `json:"skipped,omitempty"`
}

// tracer records spans in memory; they are written out after the run.
// Heap bytes allocated inside a span come from runtime/metrics, which
// reads without stopping the world.
type tracer struct {
	t0     time.Time
	op     int
	spans  []span
	open   []int32
	sample []metrics.Sample
}

func newTracer(capacity int) *tracer {
	return &tracer{
		t0:     time.Now(),
		spans:  make([]span, 0, capacity),
		open:   make([]int32, 0, 8),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name})
	t.open = append(t.open, id)
	sp := &t.spans[id]
	sp.Alloc = t.allocated()
	sp.StartNS = int64(time.Since(t.t0))
}

// end closes the innermost open span with its boundary counts.
func (t *tracer) end(work, skipped int64) {
	now := int64(time.Since(t.t0))
	alloc := t.allocated()
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[id]
	sp.EndNS = now
	sp.Alloc = alloc - sp.Alloc
	sp.Work, sp.Skipped = work, skipped
}

// traceResult is the traced run's spans and verdicts.
type traceResult struct {
	ops      int
	hits     int // analyze ops gvad answered from its cache
	failed   int
	problems []string
	spans    []span
}

func (r *traceResult) failf(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, "traced run: "+fmt.Sprintf(format, args...))
	}
}

// serveMS is the mean server.serve span per op.
func (r *traceResult) serveMS() float64 {
	var total int64
	for _, s := range r.spans {
		if s.Name == "server.serve" {
			total += s.EndNS - s.StartNS
		}
	}
	return float64(total) / 1e6 / float64(max(r.ops, 1))
}

// serve runs one request through gvad's handler inside a server.serve
// span and returns the recorded response.
func serve(t *tracer, h http.Handler, method, path string, body []byte, token string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if token != "" {
		req.Header.Set("X-Resume-Token", token)
	}
	rec := httptest.NewRecorder()
	t.begin("server.serve")
	h.ServeHTTP(rec, req)
	t.end(int64(len(body)), 0)
	return rec
}

// traceRun runs nops ops of the workload in process, one at a time, with
// Workers=1 so every count repeats exactly, and replays each op's layer
// calls under spans.
func (b *bench) traceRun(nops int) (*traceResult, error) {
	srv, rp := b.traceServer()
	defer rp.closeMirrors()
	defer srv.CloseSessions()
	return b.traceOn(srv, rp, nops)
}

// traceServer builds the in-process server, configured as gvad runs under
// load, and the replayer that mirrors it.
func (b *bench) traceServer() (*server.Server, *replayer) {
	dir := filepath.Join(b.dir, "trace")
	srv := server.New(server.Config{
		StateDir:      filepath.Join(dir, "state"),
		FsyncPolicy:   memlog.SyncInterval,
		FsyncInterval: fsyncInterval,
		SegmentBytes:  4 << 20,
		CompactFactor: 4,
	})
	return srv, newReplayer(b.w, filepath.Join(dir, "mirror"))
}

func (b *bench) traceOn(srv *server.Server, rp *replayer, nops int) (*traceResult, error) {
	perOp := 16
	if b.w.mode == "ensemble" {
		perOp = 8 + 4*b.w.members
	}
	t := newTracer(nops * perOp)
	res := &traceResult{}
	var err error
	if b.w.session {
		err = b.traceSessions(srv.Handler(), rp, t, res, nops)
	} else {
		err = b.traceAnalyze(srv.Handler(), rp, t, res, nops)
	}
	if err != nil {
		return nil, err
	}
	res.spans = t.spans
	return res, nil
}

func (b *bench) traceAnalyze(h http.Handler, rp *replayer, t *tracer, res *traceResult, nops int) error {
	bodies := make([][]byte, len(b.series))
	for i, ts := range b.series {
		bodies[i] = b.w.analyzeBody(ts, 1)
	}
	if b.w.prefill {
		for i, ts := range b.series {
			rec := serve(t, h, http.MethodPost, "/v1/analyze", bodies[i], "")
			if rec.Code != http.StatusOK {
				return fmt.Errorf("traced prefill series %d: status %d: %s", i, rec.Code, rec.Body)
			}
			p, err := pipeline(t, ts, b.w.params(), 1)
			if err != nil {
				return err
			}
			rp.cached[i] = p
		}
		t.spans = t.spans[:0] // set-up is not traced
	}
	pick := rng(b.seed, -100)
	for op := 0; op < nops; op++ {
		idx := op % len(bodies)
		if b.w.random {
			idx = pick.Intn(len(bodies))
		}
		t.op = op
		t.begin("op")
		rec := serve(t, h, http.MethodPost, "/v1/analyze", bodies[idx], "")
		var r analyzeResp
		decodeErr := json.Unmarshal(rec.Body.Bytes(), &r)
		var got answer
		var replayErr error
		if rec.Code == http.StatusOK && decodeErr == nil {
			got, replayErr = rp.analyze(t, idx, b.series[idx], r.CacheHit)
		}
		t.end(0, 0)
		res.ops++
		if r.CacheHit {
			res.hits++
		}
		switch {
		case rec.Code != http.StatusOK || decodeErr != nil:
			res.failf("op %d: status %d, %v", op, rec.Code, decodeErr)
		case replayErr != nil:
			res.failf("op %d: replay: %v", op, replayErr)
		case r.CacheHit != b.w.prefill:
			res.failf("op %d: cache_hit %v on %s", op, r.CacheHit, b.w.name)
		case !reflect.DeepEqual(got, r.answer()):
			res.failf("op %d: replay answered %s, gvad %s", op, brief(got), brief(r.answer()))
		}
	}
	return nil
}

// traceSessions drives the session workload with one client: appends in
// round robin over the sessions, an anomalies poll every pollEvery
// appends, and the same generation rotation as the load.
func (b *bench) traceSessions(h http.Handler, rp *replayer, t *tracer, res *traceResult, nops int) error {
	type traced struct {
		sessionState
		m *mirror
	}
	open := func(s *traced) error {
		t.op = res.ops
		t.begin("op")
		rec := serve(t, h, http.MethodPost, "/v1/stream", b.w.openBody(), "")
		m, err := rp.openMirror(t, fmt.Sprintf("s%d-g%d", s.idx, s.gen))
		t.end(0, 0)
		res.ops++
		if err != nil {
			return err
		}
		var o struct {
			ID    string `json:"id"`
			Token string `json:"resume_token"`
		}
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &o) != nil {
			return fmt.Errorf("traced open: status %d: %s", rec.Code, rec.Body)
		}
		s.id, s.token, s.m = o.ID, o.Token, m
		rp.mirrors[o.ID] = m
		return nil
	}
	poll := func(s *traced) {
		t.op = res.ops
		t.begin("op")
		rec := serve(t, h, http.MethodGet, "/v1/stream/"+s.id+"/anomalies", nil, s.token)
		want, err := s.m.anomalies(t)
		t.end(0, 0)
		res.ops++
		var r struct {
			Len       int                  `json:"len"`
			Anomalies []grammarviz.Anomaly `json:"anomalies"`
		}
		switch {
		case rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &r) != nil:
			res.failf("poll: status %d", rec.Code)
		case err != nil:
			res.failf("poll replay: %v", err)
		case r.Len != s.chunks*b.w.chunk || !reflect.DeepEqual(nilIfEmpty(want), nilIfEmpty(r.Anomalies)):
			res.failf("poll: gvad len %d anomalies %v, replay len %d anomalies %v", r.Len, r.Anomalies, s.chunks*b.w.chunk, want)
		}
	}
	sess := make([]*traced, b.w.sessions)
	for i := range sess {
		sess[i] = &traced{sessionState: sessionState{idx: i, points: b.w.genPoints(b.seed, i, 0)}}
		if err := open(sess[i]); err != nil {
			return err
		}
	}
	t.spans, res.ops = t.spans[:0], 0 // set-up is not traced
	var buf []byte
	appends := 0
	for j := 0; res.ops < nops; j++ {
		s := sess[j%len(sess)]
		if s.chunks == b.w.genLen(s.idx, s.gen) {
			poll(s)
			t.op = res.ops
			t.begin("op")
			rec := serve(t, h, http.MethodDelete, "/v1/stream/"+s.id, nil, s.token)
			err := s.m.close(t)
			delete(rp.mirrors, s.id)
			t.end(0, 0)
			res.ops++
			if rec.Code != http.StatusOK || err != nil {
				return fmt.Errorf("traced delete: status %d, %v", rec.Code, err)
			}
			s.gen++
			s.chunks = 0
			s.points = b.w.genPoints(b.seed, s.idx, s.gen)
			if err := open(s); err != nil {
				return err
			}
		}
		off := s.chunks * b.w.chunk
		pts := s.points[off : off+b.w.chunk]
		buf = appendBody(buf, pts, off)
		t.op = res.ops
		t.begin("op")
		rec := serve(t, h, http.MethodPost, "/v1/stream/"+s.id+"/append", buf, s.token)
		want, err := s.m.append(t, pts)
		t.end(0, 0)
		res.ops++
		var r struct {
			Len       int               `json:"len"`
			Events    []json.RawMessage `json:"events"`
			LastScore float64           `json:"last_score"`
			MaxScore  float64           `json:"max_score"`
			Compacted bool              `json:"checkpointed"`
		}
		switch {
		case rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &r) != nil:
			return fmt.Errorf("traced append: status %d: %.200s", rec.Code, rec.Body)
		case err != nil:
			return fmt.Errorf("traced append replay: %w", err)
		}
		got := appendResult{len: r.Len, events: len(r.Events), lastScore: r.LastScore, maxScore: r.MaxScore, compacted: r.Compacted}
		if got != want {
			res.failf("append: gvad %+v, replay %+v", got, want)
		}
		s.chunks++
		appends++
		if appends%b.w.pollEvery == 0 {
			poll(sess[(appends/b.w.pollEvery)%len(sess)])
		}
	}
	return nil
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums, per span name, self time (duration minus children),
// self allocation and boundary counts.
type layerTotals struct {
	selfNS  map[string]int64
	alloc   map[string]int64
	work    map[string]int64
	skipped map[string]int64
	// serverSelfNS is server.serve minus the replayed spans of each op.
	serverSelfNS int64
}

func totals(spans []span) layerTotals {
	childNS := make([]int64, len(spans))
	childAlloc := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
			childAlloc[s.Parent] += int64(s.Alloc)
		}
	}
	lt := layerTotals{selfNS: map[string]int64{}, alloc: map[string]int64{}, work: map[string]int64{}, skipped: map[string]int64{}}
	for i, s := range spans {
		lt.selfNS[s.Name] += s.EndNS - s.StartNS - childNS[i]
		lt.alloc[s.Name] += int64(s.Alloc) - childAlloc[i]
		lt.work[s.Name] += s.Work
		lt.skipped[s.Name] += s.Skipped
		if s.Name == "op" {
			// The op's children are server.serve and the top-level
			// replays; serve minus the replays is the server's own time.
			serve := int64(0)
			for _, c := range spans[i+1:] {
				if c.Op != s.Op {
					break
				}
				if c.Parent == s.ID && c.Name == "server.serve" {
					serve = c.EndNS - c.StartNS
				}
			}
			replayed := childNS[i] - serve
			lt.serverSelfNS += serve - replayed
		}
	}
	return lt
}

// perLayer computes the per-layer metrics of the traced run, plus the
// cache and coalescing ratios of the untraced run.
func perLayer(tr *traceResult, r *loadResult) map[string]metricVal {
	lt := totals(tr.spans)
	ops := float64(max(tr.ops, 1))
	ms := func(names ...string) metricVal {
		var ns int64
		for _, n := range names {
			ns += lt.selfNS[n]
		}
		return metricVal{float64(ns) / 1e6 / ops, "ms"}
	}
	kb := func(m map[string]int64, names ...string) metricVal {
		var b int64
		for _, n := range names {
			b += m[n]
		}
		return metricVal{float64(b) / 1024 / ops, "KiB"}
	}
	count := func(m map[string]int64, name string) metricVal {
		return metricVal{float64(m[name]) / ops, "count"}
	}
	ratio := func(num, den int64) metricVal {
		if den == 0 {
			return metricVal{0, "ratio"}
		}
		return metricVal{float64(num) / float64(den), "ratio"}
	}
	calls, pruned := lt.work["discord.search"], lt.skipped["discord.search"]
	used, unused := lt.work["ensemble.induce"], lt.skipped["ensemble.induce"]
	return map[string]metricVal{
		"server.self_ms":              {float64(lt.serverSelfNS) / 1e6 / ops, "ms"},
		"server.req_kb":               kb(lt.work, "server.serve"),
		"grammarviz.fingerprint_ms":   ms("grammarviz.fingerprint"),
		"cache.hit_ratio":             {r.hitRatio(), "ratio"},
		"coalesce.shared":             {r.coalesceShared, "count"},
		"sax.discretize_ms":           ms("sax.discretize"),
		"sax.words":                   count(lt.work, "sax.discretize"),
		"sax.alloc_kb":                kb(lt.alloc, "sax.discretize"),
		"sequitur.induce_ms":          ms("sequitur.induce"),
		"sequitur.rules":              count(lt.work, "sequitur.induce"),
		"sequitur.alloc_kb":           kb(lt.alloc, "sequitur.induce"),
		"grammar.build_ms":            ms("grammar.build"),
		"grammar.candidates":          count(lt.work, "grammar.build"),
		"density.curve_ms":            ms("density.curve", "density.minima"),
		"discord.search_ms":           ms("discord.search"),
		"discord.dist_calls":          count(lt.work, "discord.search"),
		"discord.pruned":              count(lt.skipped, "discord.search"),
		"discord.prune_ratio":         ratio(pruned, calls+pruned),
		"discord.alloc_kb":            kb(lt.alloc, "discord.search"),
		"ensemble.induce_ms":          ms("ensemble.induce"),
		"ensemble.members_used_ratio": ratio(used, used+unused),
		"ensemble.alloc_kb":           kb(lt.alloc, "ensemble.induce"),
		"stream.append_ms":            ms("stream.append"),
		"stream.anomalies_ms":         ms("stream.anomalies"),
		"stream.alloc_kb":             kb(lt.alloc, "stream.append", "stream.anomalies"),
		"memlog.append_ms":            ms("memlog.append"),
		"memlog.kb":                   kb(lt.work, "memlog.append"),
		"memlog.snapshot_ms":          ms("memlog.snapshot"),
		"checkpoint.encode_ms":        ms("checkpoint.encode"),
		"checkpoint.kb":               kb(lt.work, "checkpoint.encode"),
	}
}
