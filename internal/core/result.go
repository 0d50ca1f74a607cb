package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"unicode/utf8"

	"repro/internal/engine"
)

// encodeResult appends a result serialized for the file store (step 14) to
// b, in the wire form of a served answer: the live front end hands the
// object's bytes through (QueryOutcome.Body), only the synchronous driver
// decodes them. It writes what json.Marshal writes for engine.Result, byte
// for byte (FuzzEncodeResult), without reflection: the object's size is what
// the put is billed and timed by. The query processor appends to the
// recycled buffer of its queryMem; the file store keeps a copy.
func encodeResult(b []byte, r *engine.Result) []byte {
	n := len(`{"columns":,"rows":[]}`) + jsonListSize(r.Columns)
	for _, row := range r.Rows {
		n += len(`{"uri":"","cols":},`) + len(row.URI) + jsonListSize(row.Cols)
	}
	b = slices.Grow(b, n)
	b = append(b, `{"columns":`...)
	b = appendJSONStrings(b, r.Columns)
	b = append(b, `,"rows":`...)
	if r.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"uri":`...)
			b = appendJSONString(b, row.URI)
			b = append(b, `,"cols":`...)
			b = appendJSONStrings(b, row.Cols)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// jsonListSize is the encoded size of ss when none of its strings needs an
// escape.
func jsonListSize(ss []string) int {
	n := len("null")
	for _, s := range ss {
		n += len(s) + len(`"",`)
	}
	return n
}

// appendJSONStrings appends ss as json.Marshal does: null for a nil slice.
func appendJSONStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendJSONString appends s quoted as json.Marshal quotes it: `"` and `\`
// behind a backslash, \b \f \n \r \t, \u00XX for the other control
// characters and for <, > and &, \ufffd for each byte that is not valid
// UTF-8, and U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

func decodeResult(data []byte) (*engine.Result, error) {
	var r engine.Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	return &r, nil
}
