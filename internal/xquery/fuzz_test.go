package xquery

import (
	"testing"

	"repro/internal/pattern"
)

// FuzzParse: the XQuery front end never panics on arbitrary input, and what
// it accepts is a valid tree-pattern query whose rendering is the pattern
// syntax — String() reparses with pattern.Parse to the same text. That
// rendering is what the query message carries to the processors.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`for $p in //painting return (string($p/name), string($p//painter/name))`,
		`for $p in //painting where $p/year = "1854" return $p/description`,
		`for $p in //painting where contains($p/name, "Lion") return string($p/painter/name/last)`,
		`for $p in //painting
			where $p/painter/name/last = "Manet" and $p/year > "1854" and $p/year <= "1865"
			return string($p/name)`,
		`for $m in //museum, $p in //painting
			where $m//painting/@id = $p/@id and $p/painter/name/last = "Delacroix"
			return string($m/name)`,
		`for $p in //painting, $n in $p/painter/name where $n/last = "Monet" return string($n/first)`,
		`for $p in //painting where contains($p/name, "Olympia") return $p/@id`,
		`for $p in //painting where $p/year = "1854" return $p/name/text()`,
		`for $p in //painting where "1860" < $p/year and $p/painter/name/last = "Delacroix" return string($p/name)`,
		`for $m in //museum, $p in //painting where $m//painting/@id = $p/@id return (string($m/name), $p/name)`,
		`for $x in //a where $x/b = $x/c return string($x/name)`,
		`for $i in //item where $i/location = "Zanzibar" return string($i/location)`,
		`for $x in //a where $x = "1" and $x = "2" return $x`,
		`for $x in //a/@id, $z in $x/b return $z`,
		`for $x in //a return string($x`,
		``,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted %q but the query is invalid: %v", input, err)
		}
		text := q.String()
		q2, err := pattern.Parse(text)
		if err != nil {
			t.Fatalf("accepted %q but its rendering %q does not parse as a pattern: %v", input, text, err)
		}
		if again := q2.String(); again != text {
			t.Fatalf("rendering does not reparse to itself:\n  input:  %q\n  first:  %q\n  second: %q", input, text, again)
		}
	})
}
