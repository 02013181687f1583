package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grammarviz"
)

// setupRepeats is how many times a run spawns gvad and brings it to
// ready; setup_s is their median and the last instance takes the load.
const setupRepeats = 9

// sessionCap is gvad's default per-session point cap; reaching it would
// turn appends into errors, so the workload must stay below it.
const sessionCap = 2_000_000

// maxTimed caps the timed phase when minP99Samples ops take longer than
// the requested seconds.
const maxTimed = 100 * time.Second

// bench holds one run's inputs, built before gvad is spawned.
type bench struct {
	w      workload
	seed   int64
	gvad   string
	dir    string // run directory inside the checkout's build area
	series [][]float64
	bodies [][]byte
}

// sessionState is one open session as a client sees it.
type sessionState struct {
	idx, gen int
	chunks   int // appends acknowledged in this generation
	id       string
	token    string
	points   []float64 // every point of this generation
}

func (s *sessionState) header() map[string]string {
	return map[string]string{"X-Resume-Token": s.token}
}

// clientStats is what one closed-loop client measured.
type clientStats struct {
	lat       []time.Duration // main ops answered 200
	okAt      []time.Time     // when each of those ops was answered
	poll      []time.Duration // anomaly polls answered 200
	attempted int
	failed    int
	shed      int // 429 and 503 answers
	errs      []string
	seen      variants
	finals    []sessionFinal
	maxLen    int
	end       time.Time
}

func (s *clientStats) fail(what string, status int, body []byte, err error) {
	s.failed++
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.shed++
	}
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf("%s: status %d, err %v, body %.200s", what, status, err, body))
	}
}

// loadResult is the untraced run's raw measurements.
type loadResult struct {
	stats          []*clientStats // the timed clients
	post           *clientStats   // requests made after the timed phase, for the checks
	start          time.Time
	elapsed        time.Duration
	cpu            time.Duration
	allocBytes     float64
	peakRSS        int64
	setups         []time.Duration
	hits, misses   float64
	coalesceShared float64
	bad            int // ops whose output differed from the library's
	errs           []string
}

func newBench(w workload, seed int64, gvad, work string) *bench {
	b := &bench{w: w, seed: seed, gvad: gvad, dir: filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))}
	if !w.session {
		b.series, b.bodies = w.analyzeInputs(seed, 0)
	}
	return b
}

// setupOnce spawns gvad and brings it to ready: /healthz answers, the warm
// prefill is done and the sessions are open.
func (b *bench) setupOnce(stateDir string) (*daemon, []*sessionState, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b.gvad, stateDir)
	if err != nil {
		return nil, nil, 0, err
	}
	sess, err := b.ready(d.base)
	if err != nil {
		d.stop()
		return nil, nil, 0, fmt.Errorf("%w; gvad log: %s", err, d.logTail)
	}
	return d, sess, time.Since(t0), nil
}

func (b *bench) ready(base string) ([]*sessionState, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		status, _, err := do(c, http.MethodGet, base+"/healthz", nil, nil)
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Since(start) > 30*time.Second {
			return nil, fmt.Errorf("/healthz not ok after 30s: status %d, %v", status, err)
		}
	}
	if b.w.prefill {
		for i, body := range b.bodies {
			if status, resp, err := do(c, http.MethodPost, base+"/v1/analyze", body, nil); err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("prefill series %d: status %d, %v, %.200s", i, status, err, resp)
			}
		}
	}
	var sess []*sessionState
	for i := 0; b.w.session && i < b.w.sessions; i++ {
		s := &sessionState{idx: i, points: b.w.genPoints(b.seed, i, 0)}
		if err := b.open(c, base, s); err != nil {
			return nil, err
		}
		sess = append(sess, s)
	}
	return sess, nil
}

// open opens a fresh gvad session for s.
func (b *bench) open(c *http.Client, base string, s *sessionState) error {
	status, resp, err := do(c, http.MethodPost, base+"/v1/stream", b.w.openBody(), nil)
	if err != nil || status != http.StatusCreated {
		return fmt.Errorf("open session: status %d, %v, %.200s", status, err, resp)
	}
	var o struct {
		ID    string `json:"id"`
		Token string `json:"resume_token"`
	}
	if err := json.Unmarshal(resp, &o); err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	s.id, s.token = o.ID, o.Token
	return nil
}

// setup brings gvad to ready setupRepeats times and keeps the last
// instance running for the load.
func (b *bench) setup() (*daemon, []*sessionState, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("state-%d", i))
		d, sess, took, err := b.setupOnce(dir)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, took)
		if i == setupRepeats-1 {
			return d, sess, times, nil
		}
		d.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, nil, err
		}
	}
}

// load runs the closed-loop clients against d for the given duration and
// then checks every output against the library.
func (b *bench) load(d *daemon, sess []*sessionState, seconds float64) (*loadResult, error) {
	ctl := newClient()
	defer ctl.CloseIdleConnections()
	m0, err := scrape(ctl, d.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}

	// The timed phase lasts the given seconds, and longer if needed until
	// minP99Samples main ops are done, so the p99 always has ten samples
	// beyond it; maxTimed bounds it so a run ends within its time limit.
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	hardStop := start.Add(maxTimed)
	var done atomic.Int64
	more := func() bool {
		now := time.Now()
		return now.Before(deadline) || (done.Load() < minP99Samples && now.Before(hardStop))
	}
	stats := make([]*clientStats, clients)
	var next atomic.Int64 // shared position in a cycled pool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		stats[c] = &clientStats{seen: variants{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			if b.w.session {
				per := len(sess) / clients
				b.sessionClient(cl, d.base, sess[c*per:(c+1)*per], more, &done, stats[c])
			} else {
				b.analyzeClient(cl, d.base, c, &next, more, &done, stats[c])
			}
			stats[c].end = time.Now()
		}(c)
	}
	wg.Wait()
	res := &loadResult{stats: stats, post: &clientStats{}, start: start}
	for _, s := range stats {
		res.elapsed = max(res.elapsed, s.end.Sub(start))
	}

	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	m1, err := scrape(ctl, d.base)
	if err != nil {
		return nil, err
	}
	if res.peakRSS, err = d.peakRSS(); err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	res.allocBytes = m1["gvad_mem_total_alloc_bytes"] - m0["gvad_mem_total_alloc_bytes"]
	res.hits = m1["gvad_cache_hits_total"] - m0["gvad_cache_hits_total"]
	res.misses = m1["gvad_cache_misses_total"] - m0["gvad_cache_misses_total"]
	res.coalesceShared = m1["gvad_coalesce_shared_total"] - m0["gvad_coalesce_shared_total"]

	if b.w.session {
		var finals []sessionFinal
		for _, s := range stats {
			finals = append(finals, s.finals...)
		}
		for _, s := range sess {
			if f, ok := b.poll(ctl, d.base, s, res.post); ok {
				finals = append(finals, f)
			}
		}
		res.bad, res.errs = checkSessions(b.w, b.seed, finals)
	} else {
		seen := variants{}
		for _, s := range stats {
			seen.merge(s.seen)
		}
		res.bad, res.errs = checkAnalyze(b.w, b.series, seen)
	}
	return res, nil
}

func (b *bench) analyzeClient(cl *http.Client, base string, c int, next *atomic.Int64, more func() bool, done *atomic.Int64, st *clientStats) {
	pick := rng(b.seed, -1-int64(c))
	for more() {
		var idx int
		if b.w.random {
			idx = pick.Intn(len(b.bodies))
		} else {
			idx = int((next.Add(1) - 1) % int64(len(b.bodies)))
		}
		t0 := time.Now()
		status, body, err := do(cl, http.MethodPost, base+"/v1/analyze", b.bodies[idx], nil)
		lat := time.Since(t0)
		st.attempted++
		if err != nil || status != http.StatusOK {
			st.fail("analyze", status, body, err)
			continue
		}
		var r analyzeResp
		if err := json.Unmarshal(body, &r); err != nil {
			st.fail("analyze decode", status, body, err)
			continue
		}
		st.seen.add(idx, r.answer())
		st.lat = append(st.lat, lat)
		st.okAt = append(st.okAt, t0.Add(lat))
		done.Add(1)
	}
}

func (b *bench) sessionClient(cl *http.Client, base string, own []*sessionState, more func() bool, done *atomic.Int64, st *clientStats) {
	buf := make([]byte, 0, 32*b.w.chunk)
	appends := 0
	for j := 0; more(); j++ {
		s := own[j%len(own)]
		if s.chunks == b.w.genLen(s.idx, s.gen) && !b.rotate(cl, base, s, st) {
			return
		}
		off := s.chunks * b.w.chunk
		buf = appendBody(buf, s.points[off:off+b.w.chunk], off)
		t0 := time.Now()
		status, body, err := do(cl, http.MethodPost, base+"/v1/stream/"+s.id+"/append", buf, s.header())
		lat := time.Since(t0)
		st.attempted++
		if err != nil || status != http.StatusOK {
			st.fail("append", status, body, err)
			return // the session's offset is no longer known
		}
		var r struct {
			Len int `json:"len"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Len != off+b.w.chunk {
			st.fail(fmt.Sprintf("append len %d, want %d", r.Len, off+b.w.chunk), status, body, err)
			return
		}
		st.maxLen = max(st.maxLen, r.Len)
		s.chunks++
		st.lat = append(st.lat, lat)
		st.okAt = append(st.okAt, t0.Add(lat))
		done.Add(1)
		appends++
		if appends%b.w.pollEvery == 0 {
			b.poll(cl, base, own[(appends/b.w.pollEvery)%len(own)], st)
		}
	}
}

// poll fetches a session's anomalies, checks its length against what was
// sent, and returns the observation.
func (b *bench) poll(cl *http.Client, base string, s *sessionState, st *clientStats) (sessionFinal, bool) {
	t0 := time.Now()
	status, body, err := do(cl, http.MethodGet, base+"/v1/stream/"+s.id+"/anomalies", nil, s.header())
	lat := time.Since(t0)
	st.attempted++
	if err != nil || status != http.StatusOK {
		st.fail("anomalies poll", status, body, err)
		return sessionFinal{}, false
	}
	var r struct {
		Len       int                  `json:"len"`
		Anomalies []grammarviz.Anomaly `json:"anomalies"`
	}
	f := sessionFinal{session: s.idx, gen: s.gen, sent: s.chunks * b.w.chunk}
	if err := json.Unmarshal(body, &r); err != nil || r.Len != f.sent {
		st.fail(fmt.Sprintf("anomalies poll len %d, want %d", r.Len, f.sent), status, body, err)
		return sessionFinal{}, false
	}
	st.poll = append(st.poll, lat)
	f.len, f.anomalies = r.Len, r.Anomalies
	return f, true
}

// rotate closes a session whose generation is complete, after recording
// its final state for the output check, and opens the next generation.
func (b *bench) rotate(cl *http.Client, base string, s *sessionState, st *clientStats) bool {
	f, ok := b.poll(cl, base, s, st)
	if !ok {
		return false
	}
	st.finals = append(st.finals, f)
	st.attempted++
	if status, body, err := do(cl, http.MethodDelete, base+"/v1/stream/"+s.id, nil, s.header()); err != nil || status != http.StatusOK {
		st.fail("delete session", status, body, err)
		return false
	}
	s.gen++
	s.chunks = 0
	s.points = b.w.genPoints(b.seed, s.idx, s.gen)
	st.attempted++
	if err := b.open(cl, base, s); err != nil {
		st.fail("reopen session", 0, nil, err)
		return false
	}
	return true
}

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs is sorted in place.
func quantile[T ~int64 | ~float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	hi := min(lo+1, len(xs)-1)
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
}
