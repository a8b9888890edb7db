package harness

import (
	"fmt"
	"strings"
	"time"
)

// renderTable lays out rows with aligned columns.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func fmtDur(d time.Duration) string { return d.Round(100 * time.Microsecond).String() }

// Render formats the sweep as the T2 table.
func (s DisruptionSweep) Render() string {
	var t2 [][]string
	for _, r := range s {
		t2 = append(t2, []string{
			fmt.Sprintf("%d", r.ApproxStateB),
			fmtDur(r.ReconfigTook),
			fmtDur(r.Gap),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Transfer.ChunksFetched),
			fmtDur(r.Transfer.MaxWedgeCapture),
		})
	}
	return "T2: reconfiguration disruption (member swap under load)\n" +
		renderTable([]string{"state(B)", "reconfig", "max-gap", "ops/s", "retries", "chunks", "wedge-cap"}, t2)
}

// Render formats the R2 shootout.
func (r R2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		variant := "composed/wait"
		if row.Speculative {
			variant = "composed/spec"
		}
		ttfd := "n/a"
		if row.TTFDKnown {
			ttfd = fmtDur(row.TTFD)
		}
		rows = append(rows, []string{
			variant,
			ttfd,
			fmtDur(row.ReconfigTook),
			fmtDur(row.Gap),
			fmt.Sprintf("%.0f%%", row.DipDepth*100),
			fmtDur(row.DipDur),
			fmt.Sprintf("%d", row.Retries),
			fmt.Sprintf("%d", row.SpecDecides),
			fmt.Sprintf("%.0f", row.Throughput),
		})
	}
	return fmt.Sprintf("R2: reconfiguration-latency shootout at %dB state, full member replacement (median of 3)\n", r.StateBytes) +
		renderTable([]string{"variant", "ttfd", "reconfig", "max-gap", "dip", "dip-dur", "retries", "spec-dec", "ops/s"}, rows)
}

// Render formats the K1 catch-up shootout.
func (r K1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		variant := "checkpoints"
		if !row.Checkpoints {
			variant = "no-checkpoints"
		}
		rows = append(rows, []string{
			variant,
			fmt.Sprintf("%d", row.LagSlots),
			fmtDur(row.CatchupTook),
			fmtDur(row.RestartTook),
			fmt.Sprintf("%d", row.Published),
			fmt.Sprintf("%d", row.Fetches),
			fmt.Sprintf("%d", row.Truncated),
			fmt.Sprintf("%d", row.Retained),
		})
	}
	return fmt.Sprintf("K1: lagging-replica catch-up at %dB state, %d-slot lag (checkpoint fetch vs full replay)\n",
		r.StateBytes, r.LagTarget) +
		renderTable([]string{"variant", "lag", "catchup", "restart", "ckpts", "fetches", "trunc-slots", "retained"}, rows)
}
