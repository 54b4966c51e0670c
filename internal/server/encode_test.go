package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"coskq/internal/trace"
)

// FuzzResponseJSON: the hand encoder of the /query and /batch bodies
// writes exactly what encoding/json writes for the same value — the
// bytes of json.Marshal plus the newline Encode adds — and refuses
// exactly what encoding/json refuses. The fuzzed floats and strings go
// into every float and string field, and shape's bits pick nil or empty
// slices, the omitempty flags, an error item and an inlined trace.
func FuzzResponseJSON(f *testing.F) {
	for _, v := range []float64{math.Copysign(0, -1), 5e-324, 1e-7, 1e20, 1e21, math.MaxFloat64} {
		f.Add(v, -v, 12.5, "cafe", "MaxSum", "", uint8(0xff))
	}
	for _, s := range []string{
		"<script>&amp;</script>",
		`say "hi" \ bye`,
		"tab\there\nnl\rcr\bbs\ffeed\x00\x01\x1f\x7f",
		"line\u2028para\u2029end",
		"bad\xffutf8\xc3(",
		"",
	} {
		f.Add(1.0, 2.0, 3.0, s, s, s, uint8(0x0f))
	}
	f.Add(0.0, 0.0, 0.0, "", "", "", uint8(0x08))                   // empty Objects
	f.Add(0.0, 0.0, 0.0, "", "", "", uint8(0x06))                   // empty Keywords
	f.Add(0.0, 0.0, 0.0, "", "", "", uint8(0))                      // nil Objects
	f.Add(4.0, 0.0, 1e-6, "kw", "budget", "cannot", uint8(0x35))    // degraded items beside error items
	f.Add(math.NaN(), 1.0, 1.0, "kw", "", "", uint8(0x01))          // refused: NaN
	f.Add(1.0, math.Inf(1), 1.0, "kw", "deadline", "", uint8(0x0a)) // refused: +Inf

	f.Fuzz(func(t *testing.T, a, b, c float64, kw, reason, msg string, shape uint8) {
		bit := func(i uint) bool { return shape&(1<<i) != 0 }
		var kws []string
		switch {
		case bit(0):
			kws = []string{kw, reason}
		case bit(1):
			kws = []string{}
		}
		var objs []objectJSON
		switch {
		case bit(2):
			objs = []objectJSON{
				{ID: 7, X: a, Y: b, DistQ: c, Keywords: kws},
				{ID: math.MaxUint32, X: c, Y: a, DistQ: b, Keywords: []string{msg}},
			}
		case bit(3):
			objs = []objectJSON{}
		}
		q := queryResponse{
			Cost: a, CostKind: reason, Method: kw, ElapsedMs: b,
			Objects: objs, Degraded: bit(4), Reason: msg,
		}
		if bit(6) {
			tr := trace.New(kw)
			tr.Begin(reason).End()
			tr.Finish()
			q.Trace = tr.Export()
		}
		checkEncoding(t, &q, q.appendJSON)

		items := []batchItemJSON{
			{Cost: a, Objects: objs, Degraded: bit(4), Reason: reason},
			{Cost: c},
			{},
		}
		if bit(5) {
			items = append(items, batchItemJSON{Error: msg}, batchItemJSON{Degraded: true, Objects: objs, Error: kw})
		}
		br := batchResponse{CostKind: kw, Method: reason, ElapsedMs: c, Results: items}
		checkEncoding(t, &br, br.appendJSON)
		if bit(7) {
			br.Results = nil
			checkEncoding(t, &br, br.appendJSON)
		}
	})
}

func checkEncoding(t *testing.T, v any, appendJSON func([]byte) ([]byte, error)) {
	t.Helper()
	want, werr := json.Marshal(v)
	got, gerr := appendJSON(nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("encoding/json error %v, hand encoder error %v", werr, gerr)
	}
	if werr != nil {
		return
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("hand encoder:\n%s\nencoding/json:\n%s", got, want)
	}
}

// TestWriteBodyMatchesWriteJSON: what the handlers send — header and
// bytes — is what writeJSON sends for the same value, for an answer and
// for a refused (non-finite) value alike.
func TestWriteBodyMatchesWriteJSON(t *testing.T) {
	for _, q := range []queryResponse{
		{Cost: 3.5, CostKind: "MaxSum", Method: "OwnerAppro", ElapsedMs: 0.04,
			Objects: []objectJSON{{ID: 1, X: 1, Y: 2, DistQ: 2.2, Keywords: []string{"cafe"}}}},
		{Cost: math.Inf(1), CostKind: "Dia", Objects: []objectJSON{}},
	} {
		want := httptest.NewRecorder()
		writeJSON(want, q)
		got := httptest.NewRecorder()
		bb := bodyPool.Get().(*bodyBuf)
		var err error
		bb.b, err = q.appendJSON(bb.b)
		writeBody(got, bb, err)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("writeBody sent %d %q %q, writeJSON %d %q %q", got.Code, got.Header(), got.Body,
				want.Code, want.Header(), want.Body)
		}
	}
}
