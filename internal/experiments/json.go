package experiments

import (
	"encoding/json"
	"io"
)

// Report bundles every exhibit's structured results for machine
// consumption (the -json mode of cmd/experiments). Fields are nil when
// the exhibit was not requested.
type Report struct {
	Config   ReportConfig    `json:"config"`
	Table1   *Table1Result   `json:"table1,omitempty"`
	Figure4  *Figure4Result  `json:"figure4,omitempty"`
	Figure5  *Figure5Result  `json:"figure5,omitempty"`
	Table2   *Table2Result   `json:"table2,omitempty"`
	Figure6  *Figure6Result  `json:"figure6,omitempty"`
	Table3   *Table3Result   `json:"table3,omitempty"`
	Figure7  *SplitResult    `json:"figure7,omitempty"`
	Figure8  *SplitResult    `json:"figure8,omitempty"`
	Figure9  *Figure9Result  `json:"figure9,omitempty"`
	InPath   *InPathResult   `json:"inpath,omitempty"`
	Ceiling  *CeilingResult  `json:"ceiling,omitempty"`
	Hybrids  *HybridsResult  `json:"hybrids,omitempty"`
	Training *TrainingResult `json:"training,omitempty"`
	Sweeps   *SweepsResult   `json:"sweeps,omitempty"`
	Extra    *ExtraResult    `json:"extra,omitempty"`
}

// ReportConfig records the parameters a report was produced with.
type ReportConfig struct {
	Length     int      `json:"length"`
	Workloads  []string `json:"workloads"`
	GshareBits uint     `json:"gshareBits"`
	WindowLen  int      `json:"windowLen"`
}

// newReport captures the suite's configuration into an empty report.
func (s *Suite) newReport() *Report {
	return &Report{Config: ReportConfig{
		Length:     s.cfg.Length,
		Workloads:  s.cfg.Workloads,
		GshareBits: gshareBits,
		WindowLen:  oracleWindow,
	}}
}

// WriteJSON encodes the report with indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
