package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine/db"
	"repro/internal/engine/sqltypes"
)

// declared reads BENCHMARK.json from the repository root.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(t *testing.T, w string, seed int64, trace bool) config {
	return config{workload: w, seed: seed, seconds: 0.6, trace: trace, scale: 0.05, setupReps: 1, workDir: t.TempDir()}
}

// TestDeclarationsMatchProgram checks that BENCHMARK.json names exactly
// the program's workloads and metrics.
func TestDeclarationsMatchProgram(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %v, program has %s", names, workloadNames())
	}
	check := func(kind string, decl []declaredMetric, prog []string) {
		var dn []string
		for _, m := range decl {
			dn = append(dn, m.Name)
		}
		sort.Strings(dn)
		p := append([]string(nil), prog...)
		sort.Strings(p)
		if strings.Join(dn, ",") != strings.Join(p, ",") {
			t.Errorf("%s: BENCHMARK.json declares %v, program reports %v", kind, dn, p)
		}
	}
	check("end_to_end", d.EndToEnd, endToEndNames)
	check("per_layer", d.PerLayer, perLayerNames)
}

// TestEveryWorkloadTiny runs every workload untraced and traced at a
// tiny size: all output checks pass and every declared metric is
// reported with its declared unit.
func TestEveryWorkloadTiny(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			decl := d.EndToEnd
			if trace {
				decl = d.PerLayer
			}
			res, err := run(context.Background(), tinyConfig(t, w.Name, 7, trace), &strings.Builder{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(decl))
			}
			for _, m := range decl {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
			if !trace {
				for _, m := range d.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestSeedChangesInputsNotMetrics checks that another seed generates
// other inputs but reports the same metric names.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	for name, w := range workloads {
		var digests []uint64
		var metricSets []string
		for _, seed := range []int64{1, 2} {
			cfg := tinyConfig(t, name, seed, false)
			cfg.clients = min(w.clients, 2)
			b, _, err := w.setup(context.Background(), cfg, t.TempDir())
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			digests = append(digests, digest(t, b.engine()))
			if err := b.close(); err != nil {
				t.Fatal(err)
			}
			res, err := run(context.Background(), cfg, &strings.Builder{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			var ms []string
			for m := range res.Metrics {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			metricSets = append(metricSets, strings.Join(ms, ","))
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", name)
		}
		if metricSets[0] != metricSets[1] {
			t.Errorf("%s: metric names differ across seeds: %s vs %s", name, metricSets[0], metricSets[1])
		}
	}
}

// digest hashes every row of every table.
func digest(t *testing.T, d *db.DB) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, name := range d.TableNames() {
		tab, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		err = tab.Scan(func(r sqltypes.Row) error {
			for _, v := range r {
				h.Write([]byte(v.String()))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}
