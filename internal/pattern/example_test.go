package pattern_test

import (
	"fmt"

	"repro/internal/pattern"
)

// The textual syntax mirrors Figure 2's graphical notation: / and // for
// the two axes, {val}/{cont} for the projection annotations, ~ for
// contains, in (lo,hi] for ranges, and $vars + where for value joins.
func ExampleParse() {
	q, err := pattern.Parse(`//painting[/name{val}, /year in ("1854","1865"]]`)
	if err != nil {
		panic(err)
	}
	fmt.Println("patterns:", len(q.Patterns))
	fmt.Println("rendered:", q.String())
	// Output:
	// patterns: 1
	// rendered: //painting[/name{val}, /year in ("1854","1865"]]
}

func ExamplePred_Matches() {
	year := pattern.Pred{Kind: pattern.Range, Lo: "1854", Hi: "1865", LoStrict: true}
	fmt.Println(year.Matches("1854"), year.Matches("1860"), year.Matches("1865"))
	// Output: false true true
}
