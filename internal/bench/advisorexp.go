package bench

import (
	"fmt"
	"strings"

	"repro/internal/advisor"
	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/pattern"
)

// RunAdvisorAccuracy is an extension experiment: it runs the future-work
// index advisor (Sections 8.5/9) against the measured ground truth — the
// advisor estimates each strategy's look-up size from a corpus sample and
// its recommendation is compared with the measured per-query winner. The
// estimates it prints are the ones the recommendation ranked, so every
// query is estimated once.
func RunAdvisorAccuracy(e *QueryEnv, sampleEvery int) (string, error) {
	adv, err := advisor.New(e.Corpus.Parsed, advisor.Config{SampleEvery: sampleEvery, VM: ec2.XL})
	if err != nil {
		return "", err
	}
	measured, err := RunTable5(e)
	if err != nil {
		return "", err
	}
	queries := make([]*pattern.Query, len(e.Queries))
	for i, wq := range e.Queries {
		queries[i] = wq.Parse()
	}
	ranked, err := adv.Recommend(queries)
	if err != nil {
		return "", err
	}
	// The estimate of each access path for each query, by name.
	docs := map[string]map[string]float64{}
	for _, r := range ranked {
		docs[r.Access] = map[string]float64{}
		for name, ests := range r.Estimates {
			docs[r.Access][name] = ests[0].Docs
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Advisor accuracy (extension): estimated vs measured look-up documents, 1-in-%d sample\n", sampleEvery)
	fmt.Fprintf(&b, "%-6s | %-20s | %-20s | %-20s\n", "query", "LU est/meas", "LUP est/meas", "LUI est/meas")
	for i, wq := range e.Queries {
		row := measured[i]
		cell := func(s index.Strategy) string {
			return fmt.Sprintf("%.0f / %d", docs[s.Name()][wq.Name], row.DocIDs[s])
		}
		fmt.Fprintf(&b, "%-6s | %-20s | %-20s | %-20s\n", wq.Name, cell(index.LU), cell(index.LUP), cell(index.LUI))
	}
	fmt.Fprintf(&b, "advisor recommendation for the workload: %s (estimated %s / run)\n",
		ranked[0].Access, ranked[0].PerRunCost)
	return b.String(), nil
}
