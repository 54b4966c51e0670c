package server

// Hand-written JSON for the two hot response bodies, /query's and
// /batch's. Each is appended into a pooled buffer and sent with one
// Write, and the bytes are exactly what writeJSON's
// json.NewEncoder(w).Encode sends for the same value: encoding/json's
// float format, its HTML-safe string escaping, its omitempty rules and
// the trailing newline (FuzzResponseJSON holds the two together). A
// value encoding/json refuses — a non-finite float — sends no body, as
// Encode's error does. Every other body goes through writeJSON.

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// maxPooledBody caps the buffers the pool keeps, so one huge /batch
// answer does not stay resident.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

type bodyBuf struct{ b []byte }

// errNonFinite is the encoding/json refusal of a NaN or infinite float.
var errNonFinite = errors.New("json: unsupported value: non-finite float")

// writeBody sends a body an append encoder built into bb, then returns
// bb to the pool. On an encode error only the header goes out, as with
// writeJSON.
func writeBody(w http.ResponseWriter, bb *bodyBuf, err error) {
	w.Header().Set("Content-Type", "application/json")
	if err == nil {
		w.Write(bb.b)
	}
	if cap(bb.b) <= maxPooledBody {
		bb.b = bb.b[:0]
		bodyPool.Put(bb)
	}
}

// appendJSON appends r as json.NewEncoder(w).Encode(r) writes it.
func (r *queryResponse) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"cost":`...)
	b = appendFloat(b, r.Cost, &err)
	b = append(b, `,"costKind":`...)
	b = appendString(b, r.CostKind)
	b = append(b, `,"method":`...)
	b = appendString(b, r.Method)
	b = append(b, `,"elapsedMs":`...)
	b = appendFloat(b, r.ElapsedMs, &err)
	b = append(b, `,"objects":`...)
	if r.Objects == nil {
		b = append(b, "null"...)
	} else {
		b = appendObjects(b, r.Objects, &err)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.Reason != "" {
		b = append(b, `,"degradeReason":`...)
		b = appendString(b, r.Reason)
	}
	if r.Trace != nil {
		x, xerr := json.Marshal(r.Trace)
		if xerr != nil {
			return b, xerr
		}
		b = append(b, `,"trace":`...)
		b = append(b, x...)
	}
	return append(b, "}\n"...), err
}

// appendJSON appends r as json.NewEncoder(w).Encode(r) writes it.
func (r *batchResponse) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"costKind":`...)
	b = appendString(b, r.CostKind)
	b = append(b, `,"method":`...)
	b = appendString(b, r.Method)
	b = append(b, `,"elapsedMs":`...)
	b = appendFloat(b, r.ElapsedMs, &err)
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = r.Results[i].appendJSON(b, &err)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), err
}

// appendJSON appends one batch item; every field is omitempty.
func (it *batchItemJSON) appendJSON(b []byte, err *error) []byte {
	b = append(b, '{')
	sep := false
	field := func(name string) {
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = append(b, name...)
	}
	if it.Cost != 0 {
		field(`"cost":`)
		b = appendFloat(b, it.Cost, err)
	}
	if len(it.Objects) > 0 {
		field(`"objects":`)
		b = appendObjects(b, it.Objects, err)
	}
	if it.Degraded {
		field(`"degraded":true`)
	}
	if it.Reason != "" {
		field(`"degradeReason":`)
		b = appendString(b, it.Reason)
	}
	if it.Error != "" {
		field(`"error":`)
		b = appendString(b, it.Error)
	}
	return append(b, '}')
}

func appendObjects(b []byte, objs []objectJSON, err *error) []byte {
	b = append(b, '[')
	for i := range objs {
		o := &objs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(o.ID), 10)
		b = append(b, `,"x":`...)
		b = appendFloat(b, o.X, err)
		b = append(b, `,"y":`...)
		b = appendFloat(b, o.Y, err)
		b = append(b, `,"distToQuery":`...)
		b = appendFloat(b, o.DistQ, err)
		b = append(b, `,"keywords":`...)
		if o.Keywords == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, k := range o.Keywords {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendString(b, k)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendFloat appends f in encoding/json's float64 format: the shortest
// representation, as 'f' unless |f| < 1e-6 or |f| ≥ 1e21, where it is
// 'e' with a two-digit negative exponent trimmed to one (e-07 → e-7). A
// non-finite f sets *err.
func appendFloat(b []byte, f float64, err *error) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		*err = errNonFinite
		return b
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s quoted as encoding/json does with HTML
// escaping on: <, > and & as \u003c-style escapes, the short escapes
// \" \\ \b \f \n \r \t, every other control byte as \u00XX, U+2028 and
// U+2029 escaped, and each invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
