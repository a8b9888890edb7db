package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
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

// sparkline renders a series as a compact unicode bar chart.
func sparkline(series []int64, width int) string {
	if len(series) == 0 {
		return "(empty)"
	}
	// Downsample to width buckets by summing.
	if width <= 0 {
		width = 60
	}
	buckets := make([]int64, width)
	for i, v := range series {
		buckets[i*width/len(series)] += v
	}
	if len(series) < width {
		buckets = buckets[:len(series)]
	}
	var max int64
	for _, v := range buckets {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat("_", len(buckets))
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range buckets {
		idx := int(v * int64(len(levels)-1) / max)
		b.WriteRune(levels[idx])
	}
	return b.String()
}

func fmtDur(d time.Duration) string { return d.Round(100 * time.Microsecond).String() }

func fmtLat(s stats.Summary) string {
	return fmt.Sprintf("p50=%s p99=%s", fmtDur(s.P50), fmtDur(s.P99))
}

// Render formats the T1 table.
func (r T1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.0f", row.Throughput),
			fmtDur(row.Latency.P50),
			fmtDur(row.Latency.P99),
		})
	}
	return "T1: static Multi-Paxos substrate scaling\n" +
		renderTable([]string{"replicas", "ops/s", "p50", "p99"}, rows)
}

// Render formats the durable-backend comparison table.
func (r T1DurableResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		mode := "fsync"
		if row.Backend == cluster.StorageMem {
			mode = "none"
		}
		rows = append(rows, []string{
			row.Backend,
			mode,
			fmt.Sprintf("%.0f", row.Throughput),
			fmtDur(row.Latency.P50),
			fmtDur(row.Latency.P99),
		})
	}
	return fmt.Sprintf("T1d: durable acceptor persistence by storage backend (n=%d)\n", r.N) +
		renderTable([]string{"backend", "sync", "ops/s", "p50", "p99"}, rows)
}

// Render formats one disruption run as a figure-with-caption block.
func (r DisruptionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: member swap at bin %d (bin=%s)\n", r.System.String(), r.MarkBin, r.Bin)
	fmt.Fprintf(&b, "  throughput series: %s\n", sparkline(r.Series, 72))
	fmt.Fprintf(&b, "  reconfig took %s; longest commit gap %s; retries %d\n",
		fmtDur(r.ReconfigTook), fmtDur(r.Gap), r.Retries)
	fmt.Fprintf(&b, "  latency steady [%s]  during reconfig [%s]\n", fmtLat(r.SteadyLat), fmtLat(r.DisruptLat))
	if r.StateKeys > 0 {
		fmt.Fprintf(&b, "  preloaded state: ~%d bytes (%d keys)\n", r.ApproxStateB, r.StateKeys)
	}
	if t := r.Transfer; t.ChunksFetched > 0 || t.MaxWedgeCapture > 0 {
		fmt.Fprintf(&b, "  transfer: %d chunks fetched (%d crc-rejected), wedge capture %s\n",
			t.ChunksFetched, t.ChunkCRCRejected, fmtDur(t.MaxWedgeCapture))
	}
	return b.String()
}

// RenderDisruptionTable formats several disruption runs as the T2 table.
func RenderDisruptionTable(results []DisruptionResult) string {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.System.String(),
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
		renderTable([]string{"system", "state(B)", "reconfig", "max-gap", "ops/s", "retries", "chunks", "wedge-cap"}, rows)
}

// RenderLatencyTable formats disruption runs as the T5 latency table.
func RenderLatencyTable(results []DisruptionResult) string {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.System.String(),
			fmtDur(r.SteadyLat.P50), fmtDur(r.SteadyLat.P95), fmtDur(r.SteadyLat.P99),
			fmtDur(r.DisruptLat.P50), fmtDur(r.DisruptLat.P95), fmtDur(r.DisruptLat.P99),
		})
	}
	return "T5: client latency, steady state vs reconfiguration epoch\n" +
		renderTable([]string{"system", "st-p50", "st-p95", "st-p99", "rc-p50", "rc-p95", "rc-p99"}, rows)
}

// Render formats the F2 sweep.
func (r F2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		spec := "on"
		if !row.Speculative {
			spec = "off"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.StateBytes),
			spec,
			fmtDur(row.ReconfigTook),
			fmtDur(row.Gap),
		})
	}
	return "F2: composed reconfiguration latency vs state size (speculation ablation)\n" +
		renderTable([]string{"state(B)", "speculative", "reconfig", "max-gap"}, rows)
}

// Render formats the R2 shootout.
func (r R2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		variant := row.System.String()
		if row.System == Composed {
			if row.Speculative {
				variant += "/spec"
			} else {
				variant += "/wait"
			}
		}
		scenario := "swap"
		if row.FullReplace {
			scenario = "full-replace"
		}
		ttfd := "n/a"
		if row.TTFDKnown {
			ttfd = fmtDur(row.TTFD)
		}
		rows = append(rows, []string{
			variant,
			scenario,
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
	return fmt.Sprintf("R2: reconfiguration-latency shootout at %dB state (median of 3; inband row is a single swap — it cannot full-replace)\n", r.StateBytes) +
		renderTable([]string{"variant", "scenario", "ttfd", "reconfig", "max-gap", "dip", "dip-dur", "retries", "spec-dec", "ops/s"}, rows)
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

// Render formats the T3 failover measurement.
func (r T3Result) Render() string {
	return fmt.Sprintf(
		"T3: failover (crash -> detect %s -> replace)\n  reconfig took %s; crash-to-restored %s; longest gap %s; ops/s %.0f\n",
		fmtDur(r.DetectDelay), fmtDur(r.ReconfigTook), fmtDur(r.CrashToServe), fmtDur(r.GapAfterCrash), r.Throughput)
}

// Render formats the F3 elastic timeline.
func (r F3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F3: elastic chain %s under load (%d acks, bin=%s)\n",
		strings.Join(r.Chain, "→"), r.Acked, r.Bin)
	fmt.Fprintf(&b, "  %s\n", sparkline(r.Series, 72))
	for _, m := range r.Marks {
		fmt.Fprintf(&b, "  mark %-6s at +%s\n", m.Label, m.At.Sub(r.Start).Round(time.Millisecond))
	}
	return b.String()
}

// Render formats the T4 cost table.
func (r T4Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.System.String(),
			fmt.Sprintf("%d", row.Ops),
			fmt.Sprintf("%.1f", row.MsgsPerOp),
			fmt.Sprintf("%.0f", row.BytesPerOp),
			fmt.Sprintf("%d", row.ReconfigMsgs),
			fmt.Sprintf("%d", row.ReconfigByte),
		})
	}
	return "T4: protocol cost (per committed op; one member-swap reconfiguration)\n" +
		renderTable([]string{"system", "ops", "msgs/op", "bytes/op", "reconf-msgs", "reconf-bytes"}, rows)
}

// Render formats the F4 α sweep.
func (r F4Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		label := fmt.Sprintf("α=%d", row.Alpha)
		if row.Alpha == 0 {
			label = "composed(ref)"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.0f", row.Throughput),
			fmt.Sprintf("%d", row.Stalls),
		})
	}
	return "F4: in-band pipeline cap — throughput vs α (composed reference has no cap)\n" +
		renderTable([]string{"window", "ops/s", "stalls"}, rows)
}

// RenderCrossover formats composed-vs-inband disruption per state size (F5).
func RenderCrossover(results []DisruptionResult) string {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.ApproxStateB),
			r.System.String(),
			fmtDur(r.Gap),
			fmtDur(r.ReconfigTook),
		})
	}
	return "F5: disruption vs state size — composed vs in-band (crossover)\n" +
		renderTable([]string{"state(B)", "system", "max-gap", "reconfig"}, rows)
}

// Render formats the A1 batching ablation.
func (r A1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.BatchSize),
			fmt.Sprintf("%.0f", row.Throughput),
			fmt.Sprintf("%.1f", row.MsgsPerOp),
			fmtDur(row.Latency.P50),
			fmtDur(row.Latency.P99),
		})
	}
	return "A1 (ablation): commands-per-slot batching on the static substrate\n" +
		renderTable([]string{"batch", "ops/s", "msgs/op", "p50", "p99"}, rows)
}
