// Package bench is the reproduction harness for every table and figure in
// the Sinew paper's evaluation (§6, Appendices A and B). It loads the same
// generated datasets into Sinew and the three baselines (MongoDB stand-in,
// EAV, Postgres-JSON), runs the NoBench and Twitter workloads, and prints
// the same rows and series the paper reports.
//
// Absolute numbers are not comparable to the paper's testbed; the harness
// reproduces shapes: who wins, by roughly what factor, and where systems
// fail. I/O-bound regimes (the paper's 64M-record runs) are modeled by the
// byte-accounting pager plus an analytic bandwidth model (DESIGN.md §2):
// effective time = max(measured CPU time, bytes scanned / bandwidth) once
// the dataset exceeds simulated memory.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// IOModel converts byte counts into effective execution time for the
// disk-resident regime.
type IOModel struct {
	// BandwidthBytesPerSec models the storage read bandwidth (the paper's
	// SSD measured 250–300 MB/s).
	BandwidthBytesPerSec float64
	// MemoryBytes is the simulated RAM: datasets at or below it run with
	// warmed caches (pure CPU time); above it every scan pays bandwidth.
	MemoryBytes int64
}

// WarmCacheIOModel is the small-dataset regime: everything fits in memory
// and measured CPU time stands (the paper's 16M-record runs, §6).
func WarmCacheIOModel() IOModel { return IOModel{} }

// DiskBoundIOModel is the large-dataset regime scaled to harness size: the
// dataset does not fit in simulated memory and scans pay a bandwidth that
// preserves the paper's CPU-vs-I/O proportions — systems whose per-tuple
// CPU cost is low (Sinew) become scan-bound while text-parsing systems
// stay CPU-bound (§6.3's 64M-record observation).
func DiskBoundIOModel(datasetBytes int64) IOModel {
	return IOModel{BandwidthBytesPerSec: 100e6, MemoryBytes: datasetBytes / 2}
}

// Effective applies the model: below the memory limit the measured CPU
// time stands; above it the scan cannot run faster than the bandwidth
// allows.
func (m IOModel) Effective(cpu time.Duration, bytesRead, datasetBytes int64) time.Duration {
	if m.MemoryBytes <= 0 || datasetBytes <= m.MemoryBytes || m.BandwidthBytesPerSec <= 0 {
		return cpu
	}
	io := time.Duration(float64(bytesRead) / m.BandwidthBytesPerSec * float64(time.Second))
	if io > cpu {
		return io
	}
	return cpu
}

// Outcome is one measured query execution.
type Outcome struct {
	CPU       time.Duration
	BytesRead int64
	Rows      int64
	Err       error
}

// Effective renders the outcome under an I/O model.
func (o Outcome) Effective(m IOModel, datasetBytes int64) time.Duration {
	return m.Effective(o.CPU, o.BytesRead, datasetBytes)
}

// System names, in the paper's presentation order.
const (
	SysMongo = "MongoDB"
	SysSinew = "Sinew"
	SysEAV   = "EAV"
	SysPG    = "PG JSON"
)

// SystemOrder lists systems as the paper's figures do.
func SystemOrder() []string { return []string{SysMongo, SysSinew, SysEAV, SysPG} }

// ---------- report rendering ----------

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders an aligned text table.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				sb.WriteString(c)
				sb.WriteString(strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("  note: ")
		sb.WriteString(n)
		sb.WriteString("\n")
	}
	return sb.String()
}

// fmtDur renders a duration in seconds with 3 significant decimals.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// fmtBytes renders a byte count in MB.
func fmtBytes(n int64) string { return fmt.Sprintf("%.2f MB", float64(n)/1e6) }
