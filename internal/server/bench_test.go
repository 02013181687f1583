package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// serveBench drives the in-process handler with one request per op and
// fails the benchmark on any status other than want. There is no network:
// an op is body decode, handler work and response encode.
func serveBench(b *testing.B, h http.Handler, method, url, token string, body []byte, want int) {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	if token != "" {
		req.Header.Set(resumeTokenHeader, token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		b.Fatalf("%s %s: status %d, want %d: %s", method, url, rec.Code, want, rec.Body.Bytes())
	}
}

// BenchmarkComponent_ServeAnalyzeWarm is a density request for a
// 20,000-point series whose detector is already cached: what remains is
// body decode, fingerprint, cache lookup and response encode — the
// analyze-warm workload's op, without the network.
func BenchmarkComponent_ServeAnalyzeWarm(b *testing.B) {
	body, err := json.Marshal(AnalyzeRequest{
		Mode: ModeDensity, Window: 120, PAA: 4, Alphabet: 4,
		Series: testSeries(20000, 120, 9000, 180, 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	h := New(Config{}).Handler()
	serveBench(b, h, http.MethodPost, "/v1/analyze", "", body, http.StatusOK) // fill the cache
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBench(b, h, http.MethodPost, "/v1/analyze", "", body, http.StatusOK)
	}
}

// BenchmarkComponent_ServeStreamAppend is one 256-point append to an
// in-memory session, carrying its offset: decode, the incremental stream
// detector and the response. The session is replaced (off the clock)
// every 512 appends so its length, and the per-append cost, stays
// bounded however many ops the run takes.
func BenchmarkComponent_ServeStreamAppend(b *testing.B) {
	const chunk, perSession = 256, 512
	series := testSeries(chunk*perSession, 120, 40000, 180, 2)
	bodies := make([][]byte, perSession)
	for k := range bodies {
		off := k * chunk
		body, err := json.Marshal(StreamAppendRequest{Points: series[off : off+chunk], Offset: &off})
		if err != nil {
			b.Fatal(err)
		}
		bodies[k] = body
	}
	openBody, err := json.Marshal(StreamOpenRequest{Window: 120, PAA: 4, Alphabet: 4})
	if err != nil {
		b.Fatal(err)
	}
	h := New(Config{}).Handler()
	var sess StreamOpenResponse
	open := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/stream", bytes.NewReader(openBody))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("open: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
			b.Fatal(err)
		}
	}
	open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % perSession
		if k == 0 && i > 0 {
			b.StopTimer()
			serveBench(b, h, http.MethodDelete, "/v1/stream/"+sess.ID, sess.ResumeToken, nil, http.StatusOK)
			open()
			b.StartTimer()
		}
		serveBench(b, h, http.MethodPost, "/v1/stream/"+sess.ID+"/append", sess.ResumeToken, bodies[k], http.StatusOK)
	}
}
