package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine/expr"
	"repro/internal/engine/udf"
)

// renderResult prints a result exactly: doubles by their bits, so two
// renderings match only when the results are bit-identical.
func renderResult(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for _, v := range r {
			if f, ok := v.Float(); ok && !v.IsNull() {
				fmt.Fprintf(&b, "%d:%x ", v.Type(), math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%d:%s ", v.Type(), v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Materialized results are gathered in partition order and groups are
// emitted in first-seen order, so the row order of unordered results,
// ORDER BY ties and GROUP BY output does not depend on which partition
// worker finishes first.
func TestSelectDeterminism(t *testing.T) {
	queries := []string{
		"SELECT a, b FROM x",
		"SELECT a * b + 1, j FROM x WHERE b > 0",
		"SELECT j, a FROM x ORDER BY j",
		"SELECT a, b FROM x ORDER BY 1",
		"SELECT j, sum(b), count(*) FROM x GROUP BY j",
		"SELECT j % 4, sum(DISTINCT b) FROM x GROUP BY j % 4",
	}
	for _, layout := range []string{"mem", "disk"} {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/columnar=%v", layout, columnar), func(t *testing.T) {
				dir := ""
				if layout == "disk" {
					dir = t.TempDir()
				}
				cat := memCatalog{"x": mixedTable(t, "x", dir, 8, 400)}
				env := &Env{Catalog: cat, Funcs: expr.NewRegistry(), Aggs: udf.NewRegistry(), Columnar: columnar}
				for _, q := range queries {
					var want string
					for run := 0; run < 50; run++ {
						res, err := Select(context.Background(), sel(t, q), env)
						if err != nil {
							t.Fatalf("%q: %v", q, err)
						}
						got := renderResult(res)
						if run == 0 {
							want = got
						} else if got != want {
							t.Fatalf("%q: run %d returned a different result than run 0", q, run)
						}
					}
				}
			})
		}
	}
}
