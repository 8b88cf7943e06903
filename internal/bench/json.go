package bench

import (
	"encoding/json"
	"io"
	"os"
)

// PerfRecord is one machine-readable benchmark result, the unit of the
// perf trajectory unigpu-bench -json writes after whichever table it
// regenerates: diffing two such files shows whether a change moved the
// predicted latencies.
type PerfRecord struct {
	Model       string  `json:"model"`
	Platform    string  `json:"platform"`
	PredictedMs float64 `json:"predicted_ms"`
	Baseline    string  `json:"baseline,omitempty"`
	BaselineMs  float64 `json:"baseline_ms,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
}

// PerfRecords prices every model of Tables 1-3 on its platform and pairs
// it with the vendor baseline where one exists.
func (e *Estimator) PerfRecords() []PerfRecord {
	var out []PerfRecord
	for n := 1; n <= 3; n++ {
		t := e.OverallTable(n)
		for _, r := range t.Rows {
			rec := PerfRecord{
				Model:       r.Model,
				Platform:    t.Platform.Name,
				PredictedMs: r.OursMs,
			}
			if r.Supported {
				rec.Baseline = t.Baseline
				rec.BaselineMs = r.BaselineMs
				rec.Speedup = r.Speedup
			}
			out = append(out, rec)
		}
	}
	return out
}

// WritePerfJSON renders records as indented JSON.
func WritePerfJSON(w io.Writer, recs []PerfRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// WritePerfJSONFile writes records to a file; unigpu-bench's -json flag
// lands here.
func WritePerfJSONFile(path string, recs []PerfRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePerfJSON(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
