package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzParseProm: ParseProm never panics, and whatever it accepts survives
// a round trip: the samples, written back one `name{labels} value` line
// each, parse to the same samples. The seeds are the exporter's own output
// for a registry of every metric kind plus hand-written edge lines; more
// are in testdata.
func FuzzParseProm(f *testing.F) {
	r := NewRegistry()
	r.Counter("serve.admitted").Add(3)
	r.Gauge("serve.inflight").Set(-1)
	r.Histogram("serve.latency").ObserveWall(3 * time.Millisecond)
	var exposition bytes.Buffer
	if err := WriteProm(&exposition, r); err != nil {
		f.Fatal(err)
	}
	f.Add(exposition.String())
	f.Add("# HELP x\n\nx{a=\"b c\"} +Inf\ny NaN\n")
	f.Add("x 1e400\n")
	f.Add("{a} 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseProm(strings.NewReader(text))
		if err != nil {
			return
		}
		var b strings.Builder
		for _, s := range samples {
			b.WriteString(s.Name)
			if s.Labels != "" {
				b.WriteString("{" + s.Labels + "}")
			}
			b.WriteString(" " + strconv.FormatFloat(s.Value, 'g', -1, 64) + "\n")
		}
		again, err := ParseProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%q parsed, but its samples written back do not: %v\n%s", text, err, b.String())
		}
		if len(again) != len(samples) {
			t.Fatalf("%q: %d samples, %d after the round trip", text, len(samples), len(again))
		}
		for i, s := range samples {
			a := again[i]
			same := a.Value == s.Value || math.IsNaN(a.Value) && math.IsNaN(s.Value)
			if a.Name != s.Name || a.Labels != s.Labels || !same {
				t.Fatalf("%q: sample %d is %+v, %+v after the round trip", text, i, s, a)
			}
		}
	})
}
