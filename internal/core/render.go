package core

import (
	"fmt"
	"io"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/taxonomy"
	"github.com/neurosym/nsbench/internal/trace"
)

// Text renderers: each prints one figure/table of the study in the same
// row/series structure the paper reports, for cmd/nsbench and EXPERIMENTS.md.

// RenderFig2a prints the end-to-end latency phase split.
func RenderFig2a(w io.Writer, reports []*Report) {
	fmt.Fprintln(w, "Fig. 2a — end-to-end latency: neural vs symbolic share")
	fmt.Fprintf(w, "%-8s %-22s %14s %10s %10s %12s\n", "model", "category", "total", "neural%", "symbolic%", "symFLOPs%")
	for _, r := range reports {
		fmt.Fprintf(w, "%-8s %-22s %14v %9.1f%% %9.1f%% %11.1f%%\n",
			r.Name, r.Category, r.Total,
			100*(1-r.SymbolicShare), 100*r.SymbolicShare, 100*r.SymbolicFLOPShare)
	}
}

// RenderFig2b prints the cross-device projections.
func RenderFig2b(w io.Writer, rows []Fig2bRow) {
	fmt.Fprintln(w, "Fig. 2b — projected latency on edge platforms (shared trace per model)")
	fmt.Fprintf(w, "%-8s %-16s %14s %10s %12s %10s\n", "model", "device", "total", "symbolic%", "speedupTX2", "energy(J)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-16s %14v %9.1f%% %11.2fx %10.2f\n",
			r.Workload, r.Device, r.Total, 100*r.SymbolicShare, r.SpeedupVsTX2, r.EnergyJ)
	}
}

// RenderFig2c prints the RPM task-size scalability rows.
func RenderFig2c(w io.Writer, rows []Fig2cRow) {
	fmt.Fprintln(w, "Fig. 2c — NVSA scalability across RPM task sizes")
	fmt.Fprintf(w, "%-8s %14s %10s %10s\n", "task", "total", "symbolic%", "scale")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %14v %9.1f%% %9.2fx\n", r.TaskSize, r.Total, 100*r.SymbolicShare, r.ScaleVs2x2)
	}
}

// RenderFig3a prints the operator-category runtime breakdown per phase.
func RenderFig3a(w io.Writer, reports []*Report) {
	fmt.Fprintln(w, "Fig. 3a — compute-operator runtime share per phase")
	fmt.Fprintf(w, "%-8s %-9s", "model", "phase")
	for _, c := range trace.Categories() {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range reports {
		for _, p := range trace.Phases() {
			sh := r.CategoryShare[p]
			if len(sh) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-8s %-9s", r.Name, p)
			for _, c := range trace.Categories() {
				fmt.Fprintf(w, " %13.1f%%", 100*sh[c])
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderFig3b prints the memory report.
func RenderFig3b(w io.Writer, reports []*Report) {
	fmt.Fprintln(w, "Fig. 3b — memory during computation and storage footprint")
	fmt.Fprintf(w, "%-8s %14s %14s %12s %12s %14s\n",
		"model", "neuralAlloc", "symbolicAlloc", "weights", "codebooks", "symAlloc%")
	for _, r := range reports {
		total := r.Memory.NeuralAlloc + r.Memory.SymbolicAlloc
		symPct := 0.0
		if total > 0 {
			symPct = 100 * float64(r.Memory.SymbolicAlloc) / float64(total)
		}
		fmt.Fprintf(w, "%-8s %14s %14s %12s %12s %13.1f%%\n",
			r.Name, fmtBytes(r.Memory.NeuralAlloc), fmtBytes(r.Memory.SymbolicAlloc),
			fmtBytes(r.Memory.ParamsByKind["weight"]), fmtBytes(r.Memory.ParamsByKind["codebook"]), symPct)
	}
}

// RenderFig3c prints the roofline placements.
func RenderFig3c(w io.Writer, reports []*Report, device hwsim.Device) {
	fmt.Fprintf(w, "Fig. 3c — roofline on %s (ridge at %.1f FLOPs/byte)\n",
		device.Name, device.PeakFP32GFLOPs/device.MemBWGBs)
	fmt.Fprintf(w, "%-22s %12s %14s %14s %10s\n", "component", "AI(F/B)", "perf(GFLOP/s)", "bound", "ceiling%")
	for _, r := range reports {
		for _, p := range r.Roofline {
			fmt.Fprintf(w, "%-22s %12.3f %14.2f %14s %9.1f%%\n",
				p.Name, p.AI, p.PerfGFLOPs, p.Bound, p.CeilingPct)
		}
	}
}

// RenderFig4 prints the dataflow analysis.
func RenderFig4(w io.Writer, reports []*Report) {
	fmt.Fprintln(w, "Fig. 4 — operator graph and dataflow dependencies")
	fmt.Fprintf(w, "%-8s %8s %8s %7s %7s %10s %10s %9s %9s\n",
		"model", "events", "edges", "depth", "width", "seqFrac", "critPath", "n→s", "s→n")
	for _, r := range reports {
		d := r.Dataflow
		fmt.Fprintf(w, "%-8s %8d %8d %7d %7d %9.1f%% %10v %9d %9d\n",
			r.Name, d.Events, d.Edges, d.Depth, d.MaxWidth, 100*d.SequentialFraction,
			d.CriticalPathDur, d.NeuralToSymbolic, d.SymbolicToNeural)
	}
	fmt.Fprintln(w, "critical-path phase share:")
	for _, r := range reports {
		fmt.Fprintf(w, "  %-8s neural %5.1f%%  symbolic %5.1f%%\n",
			r.Name, 100*r.Dataflow.CriticalPathPhase[trace.Neural], 100*r.Dataflow.CriticalPathPhase[trace.Symbolic])
	}
}

// RenderFig5 prints the NVSA stage-sparsity rows.
func RenderFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Fig. 5 — sparsity of NVSA symbolic stages per rule attribute")
	fmt.Fprintf(w, "%-14s %-10s %10s\n", "stage", "attribute", "sparsity")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-10s %9.1f%%\n", r.Stage, r.Attribute, 100*r.Sparsity)
	}
}

// RenderTab4 prints the hardware-counter table.
func RenderTab4(w io.Writer, rows []hwsim.KernelStats, device hwsim.Device) {
	fmt.Fprintf(w, "Tab. IV — NVSA kernel characteristics on %s\n", device.Name)
	fmt.Fprintf(w, "%-26s", "metric")
	for _, r := range rows {
		fmt.Fprintf(w, " %15s", r.Kernel)
	}
	fmt.Fprintln(w)
	metric := func(label string, get func(hwsim.KernelStats) float64) {
		fmt.Fprintf(w, "%-26s", label)
		for _, r := range rows {
			fmt.Fprintf(w, " %14.1f%%", get(r))
		}
		fmt.Fprintln(w)
	}
	metric("Compute Throughput", func(k hwsim.KernelStats) float64 { return k.ComputeThroughputPct })
	metric("ALU Utilization", func(k hwsim.KernelStats) float64 { return k.ALUUtilPct })
	metric("L1 Cache Throughput", func(k hwsim.KernelStats) float64 { return k.L1ThroughputPct })
	metric("L2 Cache Throughput", func(k hwsim.KernelStats) float64 { return k.L2ThroughputPct })
	metric("L1 Cache Hit Rate", func(k hwsim.KernelStats) float64 { return k.L1HitRatePct })
	metric("L2 Cache Hit Rate", func(k hwsim.KernelStats) float64 { return k.L2HitRatePct })
	metric("DRAM BW Utilization", func(k hwsim.KernelStats) float64 { return k.DRAMBWUtilPct })
	// The rows above are modeled on the device; these two are the same
	// events as timed on the host, so they move with kernel changes.
	fmt.Fprintf(w, "%-26s", "Host time (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, " %15.1f", float64(r.MeasuredTime.Microseconds())/1000)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-26s", "Host GFLOP/s")
	for _, r := range rows {
		fmt.Fprintf(w, " %15.2f", r.AchievedGFLOPs)
	}
	fmt.Fprintln(w)
}

// RenderTab1 prints the taxonomy survey (Tables I and III).
func RenderTab1(w io.Writer) {
	fmt.Fprintln(w, "Tab. I — neuro-symbolic algorithm taxonomy")
	for _, p := range taxonomy.Paradigms() {
		fmt.Fprintf(w, "%s — %s\n", p, p.Description())
		for _, a := range taxonomy.ByParadigm(p) {
			sel := ""
			if a.Selected {
				sel = "  [characterized]"
			}
			vec := "non-vector"
			if a.Vector {
				vec = "vector"
			}
			fmt.Fprintf(w, "  %-18s ops=%v (%s)%s\n", a.Name, a.Operations, vec, sel)
		}
	}
	fmt.Fprintln(w, "\nTab. III — selected workloads")
	for _, m := range taxonomy.Workloads() {
		fmt.Fprintf(w, "  %-6s %-46s %-22s neural=%s\n", m.Name, m.FullName, m.Paradigm, m.NeuralPart)
	}
}

// fmtBytes renders a byte count in human units.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
