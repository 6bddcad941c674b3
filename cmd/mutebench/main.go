// Command mutebench regenerates the tables and figures of the MUTE paper's
// evaluation (Section 5) on the simulator and prints them as ASCII tables
// or CSV.
//
// Usage:
//
//	mutebench -fig fig12            # one experiment
//	mutebench -fig all              # every experiment, paper order
//	mutebench -fig fig14 -csv       # machine-readable output
//	mutebench -fig fig12 -json      # structured output for plotting tools
//	mutebench -fig fig12 -fm        # route audio through the full FM chain
//	mutebench -list                 # available experiment ids
//	mutebench -bench core -bench-json BENCH_core.json   # regenerate perf baseline
//	mutebench -bench core -bench-compare BENCH_core.json  # CI regression gate
//
// Experiment ids: fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19,
// lookahead, ablation-taps, ablation-fmsnr, ablation-nlms, and the
// beyond-the-paper extensions variants, mobility, contention, tracker,
// multisource, loss (cancellation vs packet loss on the forwarded
// reference, with FEC and concealment-freeze policies), and outage
// (cancellation vs scheduled relay outage duration, comparing naive,
// freeze, supervised degradation-ladder, and two-relay failover policies;
// the two-relay cell picks its stream with the relay mesh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mute/internal/bench"
	"mute/internal/experiments"
	"mute/internal/telemetry"
)

func main() {
	var (
		figID      = flag.String("fig", "fig12", "experiment id or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csv        = flag.Bool("csv", false, "emit CSV instead of tables")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of tables")
		duration   = flag.Float64("duration", 0, "seconds of simulated audio per run (0 = default)")
		seed       = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		useFM      = flag.Bool("fm", false, "route reference audio through the full FM chain")
		workers    = flag.Int("workers", 0, "experiment worker pool size (0 = one per CPU, 1 = sequential)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		telem      = flag.Bool("telemetry", false, "print the aggregated pipeline telemetry report after the run")
		traceOut   = flag.String("trace-out", "", "write per-stage JSONL trace (forces -workers 1 for a well-ordered stream)")
		debugAddr  = flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof on this address")
		benchSuite = flag.String("bench", "", "run a benchmark suite (core, figs, or fleet) instead of an experiment")
		benchJSON  = flag.String("bench-json", "", "write the benchmark report JSON to this file (default stdout)")
		benchCmp   = flag.String("bench-compare", "", "compare the benchmark run against this baseline report; exit 1 on regression")
		benchTol   = flag.Float64("bench-threshold", 0.2, "relative regression beyond which -bench-compare fails")
	)
	flag.Parse()

	if *benchSuite != "" {
		runBench(*benchSuite, *benchJSON, *benchCmp, *benchTol)
		return
	}

	if *list {
		fmt.Println(strings.Join(append(experiments.IDs(), "all"), " "))
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	cfg := experiments.Config{
		Duration:  *duration,
		Seed:      *seed,
		UseFMLink: *useFM,
		Workers:   *workers,
	}
	// Observability is opt-in and result-neutral: the registry and trace
	// only observe the runs (TestTelemetryResultNeutral pins this down).
	var reg *telemetry.Registry
	if *telem || *debugAddr != "" {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	var tr *telemetry.Trace
	if *traceOut != "" {
		tr = telemetry.NewTrace()
		cfg.Trace = tr
		cfg.Workers = 1 // a single worker keeps the event stream well-ordered
	}
	if *debugAddr != "" {
		telemetry.PublishExpvar("mute", reg)
		// Dedicated mux, bound synchronously: a bad address fails the run
		// up front instead of printing from a goroutine mid-sweep.
		bound, err := telemetry.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mutebench: expvar/pprof on http://%s/debug/vars\n", bound)
	}
	var figs []*experiments.Figure
	if *figID == "all" {
		all, err := experiments.All(cfg)
		if err != nil {
			fatal(err)
		}
		figs = all
	} else {
		fn, ok := experiments.ByID(*figID)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", *figID))
		}
		fig, err := fn(cfg)
		if err != nil {
			fatal(err)
		}
		figs = []*experiments.Figure{fig}
	}
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mutebench: wrote %d trace events to %s\n", tr.Len(), *traceOut)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(figs); err != nil {
			fatal(err)
		}
		if *telem {
			fmt.Fprint(os.Stderr, reg.Snapshot().Text())
		}
		return
	}
	for _, fig := range figs {
		if *csv {
			renderCSV(fig)
		} else {
			renderTable(fig)
		}
	}
	if *telem {
		fmt.Println("\n=== pipeline telemetry ===")
		fmt.Print(reg.Snapshot().Text())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutebench:", err)
	os.Exit(1)
}

// runBench executes a benchmark suite, emits its JSON report, and — when a
// baseline is given — fails the process on calibrated regressions beyond
// the threshold. This is the regeneration path for the checked-in
// BENCH_core.json / BENCH_figs.json / BENCH_fleet.json perf-trajectory
// files and the CI gate
// that holds them.
func runBench(suite, jsonPath, comparePath string, threshold float64) {
	rep, err := bench.Run(suite)
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if jsonPath == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
		fatal(err)
	}
	if comparePath == "" {
		return
	}
	baseline, err := bench.Load(comparePath)
	if err != nil {
		fatal(err)
	}
	problems := bench.Compare(rep, baseline, threshold)
	if len(problems) == 0 {
		fmt.Fprintf(os.Stderr, "mutebench: bench %s within %.0f%% of %s\n", suite, threshold*100, comparePath)
		return
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "mutebench: regression:", p)
	}
	os.Exit(1)
}

// sharedX reports whether every series has the same X axis.
func sharedX(fig *experiments.Figure) bool {
	if len(fig.Series) < 2 {
		return true
	}
	first := fig.Series[0].X
	for _, s := range fig.Series[1:] {
		if len(s.X) != len(first) {
			return false
		}
		for i := range first {
			if s.X[i] != first[i] {
				return false
			}
		}
	}
	return true
}

func renderTable(fig *experiments.Figure) {
	fmt.Printf("\n=== %s: %s ===\n", fig.ID, fig.Title)
	if sharedX(fig) && len(fig.Series) > 0 {
		// Joint table: X column plus one column per series.
		fmt.Printf("%12s", fig.XLabel)
		for _, s := range fig.Series {
			fmt.Printf("  %20s", truncate(s.Name, 20))
		}
		fmt.Println()
		for i := range fig.Series[0].X {
			fmt.Printf("%12.1f", fig.Series[0].X[i])
			for _, s := range fig.Series {
				fmt.Printf("  %20.2f", s.Y[i])
			}
			fmt.Println()
		}
	} else {
		for _, s := range fig.Series {
			fmt.Printf("-- %s --\n", s.Name)
			fmt.Printf("%12s  %12s\n", fig.XLabel, fig.YLabel)
			for i := range s.X {
				fmt.Printf("%12.2f  %12.3f\n", s.X[i], s.Y[i])
			}
		}
	}
	for _, n := range fig.Notes {
		fmt.Println("note:", n)
	}
}

func renderCSV(fig *experiments.Figure) {
	if sharedX(fig) && len(fig.Series) > 0 {
		cols := []string{csvEscape(fig.XLabel)}
		for _, s := range fig.Series {
			cols = append(cols, csvEscape(s.Name))
		}
		fmt.Printf("# %s\n", fig.ID)
		fmt.Println(strings.Join(cols, ","))
		for i := range fig.Series[0].X {
			row := []string{fmt.Sprintf("%g", fig.Series[0].X[i])}
			for _, s := range fig.Series {
				row = append(row, fmt.Sprintf("%g", s.Y[i]))
			}
			fmt.Println(strings.Join(row, ","))
		}
		return
	}
	fmt.Printf("# %s\n", fig.ID)
	fmt.Println("series,x,y")
	for _, s := range fig.Series {
		for i := range s.X {
			fmt.Printf("%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i])
		}
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
