package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// This file regenerates Table 5 and Figures 9, 11 and 12.

// AccessPath is a strategy name or "none" for the no-index baseline.
type AccessPath string

// NoIndex is the baseline access path.
const NoIndex AccessPath = "none"

// AccessPaths lists the baseline plus every strategy, in figure order.
func AccessPaths() []AccessPath {
	out := []AccessPath{NoIndex}
	for _, s := range Strategies() {
		out = append(out, AccessPath(s.Name()))
	}
	return out
}

// QueryEnv holds the per-strategy warehouses (already indexed) plus the
// workload and the parsed corpus for ground truth.
type QueryEnv struct {
	Corpus  *Corpus
	Rows    []IndexingRow
	Queries []workload.Query
}

// NewQueryEnv indexes the corpus under every strategy (8 large instances,
// the paper's indexing setup) and loads the workload.
func NewQueryEnv(c *Corpus) (*QueryEnv, error) {
	rows, err := RunIndexing(c, "", 8, ec2.Large)
	if err != nil {
		return nil, err
	}
	return &QueryEnv{Corpus: c, Rows: rows, Queries: workload.XMark()}, nil
}

// Warehouse returns the loaded warehouse of a strategy. The no-index
// baseline runs against the LU warehouse (its index is simply not used).
func (e *QueryEnv) Warehouse(a AccessPath) *core.Warehouse {
	if a == NoIndex {
		return e.Rows[0].Warehouse
	}
	for _, r := range e.Rows {
		if r.Strategy.Name() == string(a) {
			return r.Warehouse
		}
	}
	return nil
}

// Table5Row is one query's selectivity row.
type Table5Row struct {
	Query       string
	DocIDs      map[index.Strategy]int // "Doc. IDs from index" per strategy
	DocsResults int                    // documents actually holding results
	ResultKB    float64
}

// RunTable5 measures, for every workload query, the per-strategy number of
// document IDs returned by index look-up, the number of documents with
// results, and the result size.
func RunTable5(e *QueryEnv) ([]Table5Row, error) {
	var rows []Table5Row
	for _, q := range e.Queries {
		row := Table5Row{Query: q.Name, DocIDs: map[index.Strategy]int{}}
		p := q.Parse()
		for _, s := range Strategies() {
			w := e.Warehouse(AccessPath(s.Name()))
			per, _, err := index.LookupQuery(w.Store(), s, p)
			if err != nil {
				return nil, fmt.Errorf("bench: %s under %s: %w", q.Name, s.Name(), err)
			}
			n := 0
			for _, uris := range per {
				n += len(uris)
			}
			row.DocIDs[s] = n
		}
		res, err := engine.EvalQueryOnDocs(p, e.Corpus.Parsed)
		if err != nil {
			return nil, err
		}
		uris := map[string]bool{}
		for _, r := range res.Rows {
			for _, u := range strings.Split(r.URI, "+") {
				uris[u] = true
			}
		}
		row.DocsResults = len(uris)
		row.ResultKB = float64(res.Bytes()) / 1024
		rows = append(rows, row)
	}
	return rows, nil
}

// Table5 renders the selectivity table.
func Table5(rows []Table5Row, docs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: query processing details (%d documents)\n", docs)
	fmt.Fprintf(&b, "%-6s | %-8s %-8s %-8s %-8s | %-10s | %-12s\n",
		"Query", "LU", "LUP", "LUI", "2LUPI", "w.results", "results(KB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s | %-8d %-8d %-8d %-8d | %-10d | %-12.2f\n",
			r.Query, r.DocIDs[index.LU], r.DocIDs[index.LUP], r.DocIDs[index.LUI],
			r.DocIDs[index.TwoLUPI], r.DocsResults, r.ResultKB)
	}
	return b.String()
}

// Fig9Cell is one (query, access path, instance type) run.
type Fig9Cell struct {
	Query    string
	Access   AccessPath
	Instance string // "l" or "xl"

	Response  time.Duration
	LookupGet time.Duration
	Plan      time.Duration
	FetchEval time.Duration

	Stats core.QueryStats
	Cost  pricing.Invoice
}

// RunFig9 runs the whole workload under every access path on large and
// extra-large instances, recording response times, their decomposition
// (Figures 9a-9c) and metered per-query costs (Figures 11-12).
func RunFig9(e *QueryEnv) ([]Fig9Cell, error) {
	book := pricing.Singapore2012()
	var cells []Fig9Cell
	for _, typ := range []ec2.InstanceType{ec2.Large, ec2.XL} {
		for _, a := range AccessPaths() {
			w := e.Warehouse(a)
			for _, q := range e.Queries {
				in := ec2.Launch(w.Ledger(), typ)
				before := w.Ledger().Snapshot()
				_, stats, err := w.RunQueryOn(in, q.Text, a != NoIndex)
				if err != nil {
					return nil, fmt.Errorf("bench: %s via %s on %s: %w", q.Name, a, typ.Name, err)
				}
				cells = append(cells, Fig9Cell{
					Query:     q.Name,
					Access:    a,
					Instance:  typ.Name,
					Response:  stats.ResponseTime,
					LookupGet: stats.Lookup.GetTime,
					Plan:      stats.PlanTime,
					FetchEval: stats.FetchEvalTime,
					Stats:     stats,
					Cost:      book.Bill(w.Ledger().Snapshot().Sub(before)),
				})
			}
		}
	}
	return cells, nil
}

// Fig9a renders response times per query and access path.
func Fig9a(cells []Fig9Cell) string {
	var b strings.Builder
	b.WriteString("Figure 9a: response time (modeled seconds) per query, access path and instance type\n")
	fmt.Fprintf(&b, "%-6s %-4s", "query", "type")
	for _, a := range AccessPaths() {
		fmt.Fprintf(&b, " | %-10s", a)
	}
	b.WriteString("\n")
	byKey := map[string]map[AccessPath]time.Duration{}
	var order []string
	for _, c := range cells {
		k := c.Query + " " + c.Instance
		if byKey[k] == nil {
			byKey[k] = map[AccessPath]time.Duration{}
			order = append(order, k)
		}
		byKey[k][c.Access] = c.Response
	}
	for _, k := range order {
		parts := strings.SplitN(k, " ", 2)
		fmt.Fprintf(&b, "%-6s %-4s", parts[0], parts[1])
		for _, a := range AccessPaths() {
			fmt.Fprintf(&b, " | %-10.3f", byKey[k][a].Seconds())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9Detail renders the decomposition for one instance type (9b for "l",
// 9c for "xl").
func Fig9Detail(cells []Fig9Cell, instance string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9%s: time decomposition (modeled seconds), %s instance\n",
		map[string]string{"l": "b", "xl": "c"}[instance], instance)
	fmt.Fprintf(&b, "%-6s %-8s | %-12s | %-12s | %-12s\n",
		"query", "strategy", "index get", "plan exec", "S3+eval")
	for _, c := range cells {
		if c.Instance != instance || c.Access == NoIndex {
			continue
		}
		fmt.Fprintf(&b, "%-6s %-8s | %-12.4f | %-12.4f | %-12.4f\n",
			c.Query, c.Access, c.LookupGet.Seconds(), c.Plan.Seconds(), c.FetchEval.Seconds())
	}
	return b.String()
}

// Fig11 renders per-query monetary costs.
func Fig11(cells []Fig9Cell) string {
	var b strings.Builder
	b.WriteString("Figure 11: query processing cost per query, access path and instance type\n")
	fmt.Fprintf(&b, "%-6s %-4s", "query", "type")
	for _, a := range AccessPaths() {
		fmt.Fprintf(&b, " | %-11s", a)
	}
	b.WriteString("\n")
	byKey := map[string]map[AccessPath]pricing.USD{}
	var order []string
	for _, c := range cells {
		k := c.Query + " " + c.Instance
		if byKey[k] == nil {
			byKey[k] = map[AccessPath]pricing.USD{}
			order = append(order, k)
		}
		byKey[k][c.Access] = c.Cost.Total()
	}
	for _, k := range order {
		parts := strings.SplitN(k, " ", 2)
		fmt.Fprintf(&b, "%-6s %-4s", parts[0], parts[1])
		for _, a := range AccessPaths() {
			fmt.Fprintf(&b, " | %-11s", usd(byKey[k][a]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig12 renders the whole-workload cost decomposition by service on the
// extra-large instance, the paper's pie charts.
func Fig12(cells []Fig9Cell) string {
	var b strings.Builder
	b.WriteString("Figure 12: workload evaluation cost decomposition, extra-large instance\n")
	services := []string{"dynamodb", "s3", "ec2", "sqs", "egress"}
	labels := map[string]string{"egress": "AWSDown", "dynamodb": "DynamoDB", "s3": "S3", "ec2": "EC2", "sqs": "SQS"}
	fmt.Fprintf(&b, "%-8s", "access")
	for _, s := range services {
		fmt.Fprintf(&b, " | %-11s", labels[s])
	}
	fmt.Fprintf(&b, " | %-11s\n", "total")
	for _, a := range AccessPaths() {
		sums := map[string]pricing.USD{}
		var total pricing.USD
		for _, c := range cells {
			if c.Instance != "xl" || c.Access != a {
				continue
			}
			for svc, v := range c.Cost.Lines {
				sums[svc] += v
			}
			total += c.Cost.Total()
		}
		fmt.Fprintf(&b, "%-8s", a)
		for _, s := range services {
			fmt.Fprintf(&b, " | %-11s", usd(sums[s]))
		}
		fmt.Fprintf(&b, " | %-11s\n", usd(total))
	}
	return b.String()
}

// WorkloadCost sums the metered cost of one full workload run for an
// access path and instance type.
func WorkloadCost(cells []Fig9Cell, a AccessPath, instance string) pricing.USD {
	var total pricing.USD
	for _, c := range cells {
		if c.Access == a && c.Instance == instance {
			total += c.Cost.Total()
		}
	}
	return total
}
