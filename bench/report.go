package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// Row is one reported metric of one workload.
type Row struct {
	Workload string
	Metric   string
	Value    float64
	Unit     string
	Spread   float64 // (max−min)/median across rounds, repetitions or sample quarters; NaN if none
	Samples  int     // values behind Value: pooled samples, rounds or repetitions
}

// String renders "workload metric value unit spread samples".
func (r Row) String() string {
	spread := "-"
	if !math.IsNaN(r.Spread) {
		spread = strconv.FormatFloat(r.Spread, 'f', 4, 64)
	}
	return fmt.Sprintf("%s %s %s %s %s %d", r.Workload, r.Metric,
		strconv.FormatFloat(r.Value, 'g', 6, 64), r.Unit, spread, r.Samples)
}

// ManifestMetric is one metric entry of BENCHMARK.json.
type ManifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Manifest is the part of BENCHMARK.json the benchmark reads: which
// metrics its result line carries.
type Manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []ManifestMetric `json:"end_to_end"`
	PerLayer []ManifestMetric `json:"per_layer"`
}

// ReadManifest parses the BENCHMARK.json at path.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &m, nil
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ResultLine renders the one-line JSON result of a single-workload run:
// the manifest's end-to-end metrics, or its per-layer metrics when
// traced. A listed metric missing from res, or reported in another
// unit, is an error.
func ResultLine(m *Manifest, res *Result, traced bool) ([]byte, error) {
	want := m.EndToEnd
	if traced {
		want = m.PerLayer
	}
	metrics := make(map[string]lineMetric, len(want))
	for _, w := range want {
		for _, row := range res.Rows {
			if row.Metric == w.Name {
				if row.Unit != w.Unit {
					return nil, fmt.Errorf("bench: %s %s reported in %s, manifest says %s", res.Workload, w.Name, row.Unit, w.Unit)
				}
				metrics[w.Name] = lineMetric{row.Value, row.Unit}
			}
		}
		if _, ok := metrics[w.Name]; !ok {
			return nil, fmt.Errorf("bench: %s: manifest metric %s was not measured", res.Workload, w.Name)
		}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Wrong == 0, res.Attempted, res.Failed, metrics})
}
