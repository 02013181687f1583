package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"grammarviz/internal/workspace"
)

// Request decoding for the two bodies that are almost entirely one float
// array: POST /v1/analyze ("series") and POST /v1/stream/{id}/append
// ("points"). encoding/json spends most of a warm analyze request turning
// that array into floats, scanning it twice and reflecting per element.
// decodeSeriesBody instead walks the top-level object itself, parses the
// array in one pass with strconv.ParseFloat — the same conversion
// encoding/json makes, so every value is bit-identical — and hands the
// short remainder of the object, with the array replaced by null, to
// json.Unmarshal for every other field. Every byte is checked by one of
// the two parsers; anything the walker does not recognize as a
// well-formed object goes to json.Decoder whole, so odd inputs keep the
// stdlib's exact behaviour. FuzzDecodeRequest pins the equivalence.

// decodeSeriesBody reads body (the handler's MaxBytesReader) into a
// pooled buffer and decodes its first JSON value into v, a pointer to a
// request struct whose float array field under key is *dst. sizeHint is
// the request's Content-Length (-1 when unknown): when the pooled buffer
// is too small for a body under workspace.MaxPooledBody, it is replaced by
// one of the body's size, so a pool miss costs one allocation instead of
// a doubling series of them.
//
// A read error — typically *http.MaxBytesError — is returned unless the
// bytes read before it already hold a complete value, which is when
// json.Decoder.Decode would not have read further either.
func decodeSeriesBody(body io.Reader, sizeHint int64, v any, key string, dst *[]float64) error {
	b := workspace.GetBody()
	defer workspace.PutBody(b)
	if sizeHint > 0 && sizeHint < workspace.MaxPooledBody && int64(cap(b.Buf)) <= sizeHint {
		b.Buf = make([]byte, 0, sizeHint+1) // +1: room for the read that sees EOF
	}
	var readErr error
	b.Buf, readErr = readAll(body, b.Buf[:0])
	err := decodeSeriesJSON(b.Buf, v, key, dst)
	if readErr != nil && err != nil {
		return readErr
	}
	return err
}

// readAll is io.ReadAll appending into buf's spare capacity, so a pooled
// buffer is reused instead of regrown.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeSeriesJSON decodes the first JSON value in data into v exactly as
// json.NewDecoder(bytes.NewReader(data)).Decode(v) would, parsing the
// array under key (matched like encoding/json matches field names:
// case-insensitively, last duplicate wins) into *dst itself. Bytes after
// the first value are ignored, as Decoder.Decode ignores them.
func decodeSeriesJSON(data []byte, v any, key string, dst *[]float64) error {
	stdlib := func() error { return json.NewDecoder(bytes.NewReader(data)).Decode(v) }
	i := skipSpace(data, 0)
	if i == len(data) {
		return io.EOF // what Decoder.Decode reports for an empty body
	}
	if data[i] != '{' {
		return stdlib()
	}

	// Walk the object's members. back is the field's reused backing array
	// as encoding/json would see it across duplicate keys: decoding an
	// array into a non-nil slice overwrites elements in place, so a null
	// element keeps whatever an earlier duplicate stored at its index.
	var (
		spans  [][2]int
		series []float64
		back   []float64
		parsed bool // the last occurrence of key was an array parsed here
		end    = -1
	)
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		end = i + 1
	}
	for end < 0 {
		if i >= len(data) || data[i] != '"' {
			return stdlib()
		}
		kEnd := skipString(data, i)
		if kEnd < 0 {
			return stdlib()
		}
		match := keyMatches(data[i:kEnd], key)
		i = skipSpace(data, kEnd)
		if i >= len(data) || data[i] != ':' {
			return stdlib()
		}
		i = skipSpace(data, i+1)
		if i >= len(data) {
			return stdlib()
		}
		if match && data[i] == '[' {
			var n, aEnd int
			var err error
			if back, n, aEnd, err = parseFloatArray(data, i, back, key); err != nil {
				return err
			}
			spans = append(spans, [2]int{i, aEnd})
			series, parsed = back[:n], true
			if n == 0 {
				series, back = []float64{}, nil
			}
			i = aEnd
		} else {
			if match {
				// null resets the field; anything else is a type error
				// the stdlib pass reports.
				back, parsed = nil, false
			}
			if i = skipValue(data, i); i < 0 {
				return stdlib()
			}
		}
		i = skipSpace(data, i)
		switch {
		case i < len(data) && data[i] == ',':
			i = skipSpace(data, i+1)
		case i < len(data) && data[i] == '}':
			end = i + 1
		default:
			return stdlib()
		}
	}

	rest := data[:end]
	if len(spans) > 0 {
		size := end + 4*len(spans)
		for _, sp := range spans {
			size -= sp[1] - sp[0]
		}
		rest = make([]byte, 0, size)
		prev := 0
		for _, sp := range spans {
			rest = append(rest, data[prev:sp[0]]...)
			rest = append(rest, "null"...)
			prev = sp[1]
		}
		rest = append(rest, data[prev:end]...)
	}
	if err := json.Unmarshal(rest, v); err != nil {
		return err
	}
	if parsed {
		*dst = series
	}
	return nil
}

// parseFloatArray parses the JSON array starting at data[i] == '[' whose
// elements must be numbers or null into back, the field's backing array
// (see decodeSeriesJSON; nil for the first occurrence of the key), and
// returns it with the element count n and the index just past the
// closing bracket. back is grown by a fresh allocation when the array
// may not fit; element k overwrites back[k] and a null element leaves it
// as it was, zero in grown space. Writing in place, as encoding/json
// does, keeps a body of many duplicate keys linear. Numbers are checked
// against the JSON grammar before strconv.ParseFloat sees them, so the
// values are exactly encoding/json's; a range error is an error, as it
// is there.
func parseFloatArray(data []byte, i int, back []float64, key string) (vals []float64, n, end int, err error) {
	// No element or whitespace contains ']' or ',', so the first ']'
	// bounds the array — the loop below cannot step past it — and the
	// commas before it bound the element count.
	closing := bytes.IndexByte(data[i:], ']')
	if closing < 0 {
		return nil, 0, 0, fmt.Errorf("%s: unterminated array", key)
	}
	vals = back
	if need := bytes.Count(data[i:i+closing], []byte{','}) + 1; need > len(back) {
		vals = make([]float64, need)
		copy(vals, back)
	}

	j := skipSpace(data, i+1)
	if data[j] == ']' {
		return vals, 0, j + 1, nil
	}
	for {
		if bytes.HasPrefix(data[j:], []byte("null")) {
			j += 4
		} else {
			e := scanNumber(data, j)
			if e < 0 {
				return nil, 0, 0, fmt.Errorf("%s element %d at byte %d: want a JSON number or null", key, n, j)
			}
			f, err := strconv.ParseFloat(string(data[j:e]), 64)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s element %d: %w", key, n, err)
			}
			vals[n] = f
			j = e
		}
		n++
		j = skipSpace(data, j)
		switch data[j] {
		case ',':
			j = skipSpace(data, j+1)
		case ']':
			return vals, n, j + 1, nil
		default:
			return nil, 0, 0, fmt.Errorf("%s element %d at byte %d: want ',' or ']' after a value", key, n-1, j)
		}
	}
}

// scanNumber returns the index just past the JSON number starting at
// data[i] — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 when
// no number starts there. It rejects what strconv.ParseFloat would
// otherwise accept beyond JSON: a leading '+', leading zeros, hex,
// underscores, Inf and NaN.
func scanNumber(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		return -1
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		d := skipDigits(data, i+1)
		if d == i+1 {
			return -1
		}
		i = d
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		d := skipDigits(data, i)
		if d == i {
			return -1
		}
		i = d
	}
	return i
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipString returns the index just past the string starting at
// data[i] == '"', or -1 when it is unterminated. Escapes are stepped
// over, not validated: the stdlib pass validates every skipped byte.
func skipString(data []byte, i int) int {
	for j := i + 1; j < len(data); j++ {
		switch data[j] {
		case '\\':
			j++
		case '"':
			return j + 1
		}
	}
	return -1
}

// skipValue returns the index just past the value starting at data[i],
// or -1 when its extent cannot be found. Like skipString it finds
// boundaries only; validation is the stdlib pass's job.
func skipValue(data []byte, i int) int {
	switch data[i] {
	case '"':
		return skipString(data, i)
	case '{', '[':
		depth := 0
		for j := i; j < len(data); j++ {
			switch data[j] {
			case '"':
				if j = skipString(data, j); j < 0 {
					return -1
				}
				j-- // the loop steps past the closing quote
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return j + 1
				}
			}
		}
		return -1
	}
	j := i
	for j < len(data) && !strings.ContainsRune(",}] \t\n\r", rune(data[j])) {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// keyMatches reports whether the quoted key raw names key the way
// encoding/json matches a field name: after unescaping, equal under
// Unicode case folding.
func keyMatches(raw []byte, key string) bool {
	name := raw[1 : len(raw)-1]
	if bytes.IndexByte(name, '\\') < 0 {
		return strings.EqualFold(string(name), key)
	}
	var s string
	if json.Unmarshal(raw, &s) != nil {
		return false // the stdlib pass rejects the key
	}
	return strings.EqualFold(s, key)
}

// writeDecodeError answers a body that failed to decode: 413 when it
// exceeded Config.MaxBodyBytes, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decode %s: %w", what, err))
}
