package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
)

// resultFrom reads a result out of fuzz bytes and returns it with the bytes
// it did not read. Every list is nil, empty or one to four strings (the rows
// one to six), and every string up to 23 raw bytes, so quotes, <>&, control
// characters, U+2028/2029 and invalid UTF-8 reach the encoder as the fuzzer
// wrote them.
func resultFrom(data []byte) (*engine.Result, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	str := func() string {
		n := min(next()%24, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	strs := func() []string {
		switch next() % 3 {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		out := make([]string, next()%4+1)
		for i := range out {
			out[i] = str()
		}
		return out
	}
	r := &engine.Result{Columns: strs()}
	switch next() % 3 {
	case 1:
		r.Rows = []engine.Row{}
	case 2:
		r.Rows = make([]engine.Row, next()%6+1)
		for i := range r.Rows {
			r.Rows[i] = engine.Row{URI: str(), Cols: strs()}
		}
	}
	return r, data
}

// FuzzEncodeResult holds the hand-written result encoder to json.Marshal,
// byte for byte: the stored object's bytes are what the put is billed and
// timed by, and what POST /query splices into its answer. Two results are
// drawn and encoded back to back, the second into the first's buffer, as
// the query processor reuses its buffer: nothing of the first may show in
// the second.
func FuzzEncodeResult(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x01\x02\x00\x01\x02\x05a.xml\x02\x03"))
	f.Add([]byte("\x02\x03\x0c<b>&\"q\"\\x\x05\x00\x01\x1f\x7f\x08\x0c\x06\n\r\t\x0b.\x02\x01\x09\xe2\x80\xa8\xe2\x80\xa9\xe2\x80\xaa\x02\x00"))
	f.Add([]byte("\x02\x00\x08\xff\xc3(\xed\xa0\x80\xe9\x02\x02\x04\x0a\xf0\x9f\x98\x80\xc3\xa9\xef\xbf\xbd\x02\x01\x03\xf4\x90\x80"))
	// A long first result, then a short one in its buffer.
	f.Add([]byte("\x02\x00\x17aaaaaaaaaaaaaaaaaaaaaaa\x02\x01\x05hello\x02\x00\x03xyz\x01z\x01\x00\x02\x00\x01q\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, rest := resultFrom(data)
		second, _ := resultFrom(rest)
		var buf []byte
		for _, r := range []*engine.Result{first, second} {
			want, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if buf = encodeResult(buf[:0], r); !bytes.Equal(buf, want) {
				t.Fatalf("encodeResult wrote\n%s\njson.Marshal writes\n%s", buf, want)
			}
		}
	})
}
