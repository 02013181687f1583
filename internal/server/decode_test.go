package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// decodeSeeds are request bodies probing where a hand-written decoder can
// drift from encoding/json: key matching, duplicates, null elements,
// number grammar, range errors and trailing bytes. Each is also fed to
// the stream-append decoder with its "series" keys renamed to "points".
var decodeSeeds = []string{
	`{"mode":"density","series":[1,2,3]} trailing garbage {`,
	`{"series":[1,2,3]}{"series":[4]}`,
	`{"series":[1,null,3]}`,
	`{"series":[1e400]}`,
	`{"series":[-1e400]}`,
	`{"series":[1e-400]}`,
	`{"SERIES":[1,2]}`,
	`{"Series":[1],"series":[2,3]}`,
	`{"series":[5,6,7],"series":[1,null]}`,
	`{"series":[5,6,7,8,9],"series":[1],"series":[null,null,null]}`,
	`{"series":[5,6],"series":null,"series":[null,null]}`,
	`{"series":[5,6],"series":[],"series":[null]}`,
	`{"series":[1,2],"series":"x"}`,
	`{"series":[1,"2",3]}`,
	`{"series":[01]}`,
	`{"series":[-0]}`,
	`{"series":[1E+2]}`,
	`{"series":[+1]}`,
	`{"series":[0x1p3]}`,
	`{"series":[NaN]}`,
	`{"series":[Infinity]}`,
	`{"series":[1_0]}`,
	`{"series":[1.]}`,
	`{"series":[.5]}`,
	`{"series":[1e]}`,
	`{"series":[-]}`,
	`{"series":[1,]}`,
	`{"series":[,1]}`,
	`{"series":[1 2]}`,
	`{"series":[[1]]}`,
	`{"series":[true]}`,
	`{"series":[nul]}`,
	`{"series":[1]`,
	`{"series":[1`,
	`{"series":"1,2"}`,
	`{"mode":"\"series\":[9]","series":[1]}`,
	`{"tenant":"series\":[1,2]"}`,
	`{"a":{"series":[1]},"series":[2],"b":["]",{"c":"}"}]}`,
	"{ \"series\" : [ 1 ,\n\t2\r, 3 ] , \"k\" : 2 }",
	`{"series":[]}`,
	`{"series":[ ]}`,
	`{"series":null}`,
	`{"series":[null]}`,
	`null`,
	`[1,2]`,
	`{}`,
	``,
	`   `,
	`{"series":[4,5]}`,
	`{"ſeries":[4]}`,
	`{"series":[1],"k":"x"}`,
	`{"series":[1],"threshold":3,"offset":4,"window":2}`,
	`{"series":[1.7976931348623157e308,4.9e-324,123456789012345678901234567890123456789]}`,
	`{"series":[1],"mode":"density",}`,
	`{"series" [1]}`,
	`{"series":[1]"mode":"x"}`,
}

// sameFloats reports bit-identical slices, telling nil from empty.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDecodeEquivalent decodes data with decodeSeriesJSON and with
// json.Decoder into fresh values of both request types and fails unless
// both succeed with bit-identical structs or both fail.
func checkDecodeEquivalent(t *testing.T, data []byte) {
	t.Helper()
	var gotA, wantA AnalyzeRequest
	errGot := decodeSeriesJSON(data, &gotA, "series", &gotA.Series)
	errWant := json.NewDecoder(bytes.NewReader(data)).Decode(&wantA)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("analyze %q: err = %v, encoding/json err = %v", data, errGot, errWant)
	}
	if errGot == nil {
		if !sameFloats(gotA.Series, wantA.Series) {
			t.Fatalf("analyze %q: series = %v, encoding/json %v", data, gotA.Series, wantA.Series)
		}
		gotA.Series, wantA.Series = nil, nil
		if !reflect.DeepEqual(gotA, wantA) {
			t.Fatalf("analyze %q: %+v, encoding/json %+v", data, gotA, wantA)
		}
	}

	var gotS, wantS StreamAppendRequest
	errGot = decodeSeriesJSON(data, &gotS, "points", &gotS.Points)
	errWant = json.NewDecoder(bytes.NewReader(data)).Decode(&wantS)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("append %q: err = %v, encoding/json err = %v", data, errGot, errWant)
	}
	if errGot == nil {
		if !sameFloats(gotS.Points, wantS.Points) {
			t.Fatalf("append %q: points = %v, encoding/json %v", data, gotS.Points, wantS.Points)
		}
		gotS.Points, wantS.Points = nil, nil
		if !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("append %q: %+v, encoding/json %+v", data, gotS, wantS)
		}
	}
}

// FuzzDecodeRequest is the differential check on the request decoder: on
// any bytes it must agree with json.Decoder.Decode for both request types
// — bit-identical structs, or an error from both.
func FuzzDecodeRequest(f *testing.F) {
	toPoints := strings.NewReplacer("series", "points", "SERIES", "POINTS", "Series", "Points")
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
		f.Add([]byte(toPoints.Replace(s)))
	}
	f.Fuzz(checkDecodeEquivalent)
}

// TestDecodeSeriesValues pins the decoded values of the seeds the fuzz
// target compares only against encoding/json.
func TestDecodeSeriesValues(t *testing.T) {
	cases := []struct {
		body string
		want []float64
	}{
		{`{"series":[1,null,3]} junk`, []float64{1, 0, 3}},
		{`{"SERIES":[1,2],"series":[3]}`, []float64{3}},
		{`{"series":[5,6,7],"series":[1,null]}`, []float64{1, 6}},
		{`{"series":[1,2,3],"series":[4,null,null,null,5]}`, []float64{4, 2, 3, 0, 5}},
		{`{"series":[1,2,3],"series":[4],"series":[null,null,null]}`, []float64{4, 2, 3}},
		{`{"series":[-0,1E+2]}`, []float64{math.Copysign(0, -1), 100}},
		{`{"series":[]}`, []float64{}},
		{`{"series":null}`, nil},
	}
	for _, c := range cases {
		var req AnalyzeRequest
		if err := decodeSeriesJSON([]byte(c.body), &req, "series", &req.Series); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if !sameFloats(req.Series, c.want) {
			t.Errorf("%s: series = %v, want %v", c.body, req.Series, c.want)
		}
	}
	for _, body := range []string{`{"series":[1e400]}`, `{"series":[01]}`, `{"series":[1,"2"]}`} {
		var req AnalyzeRequest
		if err := decodeSeriesJSON([]byte(body), &req, "series", &req.Series); err == nil {
			t.Errorf("%s: decoded %v, want an error", body, req.Series)
		}
	}
}

// TestDecodeDuplicateKeysLinear checks that repeated keys after a long
// array cost their own length, not the long array's: the decoder reuses
// the field's backing array in place, as encoding/json does, instead of
// copying it per duplicate.
func TestDecodeDuplicateKeysLinear(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(`{"series":[`)
	body.WriteString(strings.Repeat("1,", 99_999))
	body.WriteString("1]")
	body.WriteString(strings.Repeat(`,"series":[2]`, 1000))
	body.WriteString("}")

	var req AnalyzeRequest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := decodeSeriesJSON(body.Bytes(), &req, "series", &req.Series); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(req.Series) != 1 || req.Series[0] != 2 {
		t.Fatalf("series = %v, want [2]", req.Series)
	}
	// One 800 KB backing array plus the remainder; a copy per duplicate
	// would be 800 MB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Errorf("decode allocated %d bytes, want under 16 MiB", got)
	}
}

// TestDecodeSeriesFreshSlice checks that the decoded series never aliases
// the (pooled) body buffer: detectors retain it past the request.
func TestDecodeSeriesFreshSlice(t *testing.T) {
	body := []byte(`{"series":[1,2,3],"mode":"density"}`)
	var a, b AnalyzeRequest
	if err := decodeSeriesBody(bytes.NewReader(body), int64(len(body)), &a, "series", &a.Series); err != nil {
		t.Fatal(err)
	}
	if err := decodeSeriesBody(bytes.NewReader(body), -1, &b, "series", &b.Series); err != nil {
		t.Fatal(err)
	}
	a.Series[0] = 42
	if b.Series[0] != 1 || a.Mode != ModeDensity {
		t.Fatalf("decoded requests share storage: %v %v", a, b)
	}
}

// TestOversizedBodyIs413 checks that every JSON endpoint answers a body
// over Config.MaxBodyBytes with 413, not 400.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big := testSeries(200, 45, 100, 20, 1)
	sess := openSession(t, ts.URL, StreamOpenRequest{Window: 40, PAA: 4, Alphabet: 4})

	cases := []struct {
		name, url, token string
		body             any
	}{
		{"analyze", "/v1/analyze", "", AnalyzeRequest{Mode: ModeDensity, Window: 45, PAA: 4, Alphabet: 4, Series: big}},
		{"batch", "/v1/analyze/batch", "", BatchRequest{Requests: []AnalyzeRequest{{Mode: ModeDensity, Series: big}}}},
		{"stream open", "/v1/stream", "", StreamOpenRequest{Window: 40, PAA: 4, Alphabet: 4, Reduction: strings.Repeat("x", 600)}},
		{"stream append", "/v1/stream/" + sess.ID + "/append", sess.ResumeToken, StreamAppendRequest{Points: big}},
	}
	for _, c := range cases {
		status, body := doJSON(t, http.MethodPost, ts.URL+c.url, c.token, c.body)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", c.name, status, body)
		}
	}

	// A body under the cap still decodes, and a malformed one is a 400.
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/stream/"+sess.ID+"/append", sess.ResumeToken,
		StreamAppendRequest{Points: big[:10]})
	if status != http.StatusOK {
		t.Errorf("small append: status %d: %s", status, body)
	}
	status, body = postRaw(t, ts.URL+"/v1/analyze", `{"series":[1,"2"]}`)
	if status != http.StatusBadRequest {
		t.Errorf("malformed analyze: status %d, want 400: %s", status, body)
	}
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}
