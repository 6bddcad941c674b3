// Package bench measures the pipeline's hot kernels and end-to-end figure
// cost, and emits/compares machine-readable reports. Three suites exist:
//
//   - core: microbenchmarks of the kernels the per-sample loop lives in
//     (planned FFTs, streaming convolution, LANC steps, partitioned FDAF
//     blocks, GCC-PHAT correlation), in ns/op.
//   - figs: end-to-end numbers — Figure 12 wall time on one worker, and the
//     realtime factor of a MUTE_Hollow run on the time-domain and
//     partitioned frequency-domain paths.
//   - fleet: session-server capacity — CPU cost per session-block and
//     realtime sessions per core (gated), plus the paced 500-session
//     deadline-miss rate over the real UDP transport (informational).
//
// Reports are plain JSON (schema mute-bench/v1) intended to be checked in
// (BENCH_core.json, BENCH_figs.json, BENCH_fleet.json) as the repo's perf
// trajectory. Compare
// judges a fresh run against a checked-in baseline, normalizing for host
// speed through the "calibrate" entry — a fixed scalar workload whose ratio
// between the two reports estimates how much faster or slower the current
// machine is, so a 20% regression gate does not fire just because CI runs
// on different hardware.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/experiments"
	"mute/internal/relaysel"
	"mute/internal/sim"
)

// Schema is the report format identifier.
const Schema = "mute-bench/v1"

// Entry is one measured quantity.
type Entry struct {
	// Name identifies the measurement (e.g. "fft.roundtrip.1024").
	Name string `json:"name"`
	// Value is the measurement in Unit.
	Value float64 `json:"value"`
	// Unit is "ns/op" or "ms" (lower is better) or "x" for realtime
	// factors (higher is better) — the three units Compare gates. Any
	// other unit ("dB", "%", "ms*" for wall-clock quantities too noisy on
	// shared runners) is informational: published and checked for
	// presence, never gated on value.
	Unit string `json:"unit"`
	// Iters is how many operations the timing averaged over.
	Iters int `json:"iters,omitempty"`
}

// Report is a full suite run.
type Report struct {
	Schema    string  `json:"schema"`
	Suite     string  `json:"suite"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Entries   []Entry `json:"entries"`
}

// Run executes the named suite ("core", "figs", or "fleet").
func Run(suite string) (*Report, error) {
	var (
		entries []Entry
		err     error
	)
	switch suite {
	case "core":
		entries, err = runCore()
	case "figs":
		entries, err = runFigs()
	case "fleet":
		entries, err = runFleet()
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (want core, figs, or fleet)", suite)
	}
	if err != nil {
		return nil, err
	}
	return &Report{
		Schema:    Schema,
		Suite:     suite,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Entries:   entries,
	}, nil
}

// Load reads a report from disk.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Compare judges current against baseline and returns one message per
// regression beyond threshold (0.2 = 20%). Host speed differences are
// divided out through the "calibrate" entry when both reports carry it.
// Entries present only in one report are reported as missing rather than
// silently skipped; "dB" entries are informational and never gate.
func Compare(current, baseline *Report, threshold float64) []string {
	curBy := make(map[string]Entry, len(current.Entries))
	for _, e := range current.Entries {
		curBy[e.Name] = e
	}
	cal := 1.0
	if ce, ok := curBy["calibrate"]; ok {
		for _, be := range baseline.Entries {
			if be.Name == "calibrate" && be.Value > 0 {
				cal = ce.Value / be.Value
			}
		}
	}
	var problems []string
	for _, be := range baseline.Entries {
		if be.Name == "calibrate" || be.Value <= 0 {
			continue
		}
		ce, ok := curBy[be.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from current report", be.Name))
			continue
		}
		switch be.Unit {
		case "ns/op", "ms":
			norm := ce.Value / be.Value / cal
			if norm > 1+threshold {
				problems = append(problems, fmt.Sprintf(
					"%s: %.4g %s vs baseline %.4g %s (%.0f%% slower after calibration)",
					be.Name, ce.Value, ce.Unit, be.Value, be.Unit, (norm-1)*100))
			}
		case "x":
			norm := ce.Value / be.Value * cal
			if norm < 1/(1+threshold) {
				problems = append(problems, fmt.Sprintf(
					"%s: %.4g%s vs baseline %.4g%s (%.0f%% less realtime headroom after calibration)",
					be.Name, ce.Value, ce.Unit, be.Value, be.Unit, (1-norm)*100))
			}
		}
	}
	return problems
}

// measureTarget is how long each microbenchmark timing loop aims to run;
// tests shrink it to keep the suite fast.
var measureTarget = 150 * time.Millisecond

// measure times op by growing the iteration count until one round runs for
// at least measureTarget, then reports the fastest of three rounds at that
// count. Scheduling noise and cache pollution from co-tenants only ever add
// time, so the minimum is the most repeatable estimator on a shared host —
// what keeps a checked-in baseline comparable across CI runs.
func measure(op func()) (nsPerOp float64, iters int) {
	op() // warm caches, build lazy plans
	round := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(start)
	}
	n := 1
	var elapsed time.Duration
	for {
		elapsed = round(n)
		if elapsed >= measureTarget || n >= 1<<26 {
			break
		}
		next := n * 4
		if elapsed > 0 {
			if f := int(float64(measureTarget) * 3 / 2 / float64(elapsed)); f >= 2 && n*f < next {
				next = n * f
			}
		}
		n = next
	}
	best := elapsed
	for r := 0; r < 2; r++ {
		if e := round(n); e < best {
			best = e
		}
	}
	return float64(best.Nanoseconds()) / float64(n), n
}

// benchSink defeats dead-code elimination of benchmark results.
var benchSink float64

// noise fills a deterministic pseudo-random slice in [-0.5, 0.5)
// (xorshift64*, independent of the simulator's generators).
func noise(seed uint64, n int) []float64 {
	out := make([]float64, n)
	s := seed*0x9e3779b97f4a7c15 + 1
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = float64(s%(1<<20))/(1<<20) - 0.5
	}
	return out
}

// calibrateEntry measures the fixed scalar dot product both suites carry as
// their hardware-speed yardstick.
func calibrateEntry() Entry {
	ca, cb := noise(1, 4096), noise(2, 4096)
	ns, iters := measure(func() {
		var acc float64
		for i := range ca {
			acc += ca[i] * cb[i]
		}
		benchSink += acc
	})
	return Entry{Name: "calibrate", Value: ns, Unit: "ns/op", Iters: iters}
}

func runCore() ([]Entry, error) {
	entries := []Entry{calibrateEntry()}
	add := func(name string, op func()) {
		ns, iters := measure(op)
		entries = append(entries, Entry{Name: name, Value: ns, Unit: "ns/op", Iters: iters})
	}

	// Planned complex FFT, forward+inverse so magnitudes stay bounded
	// across millions of iterations (Inverse normalizes by 1/N).
	fp := dsp.PlanFFT(1024)
	cbuf := make([]complex128, 1024)
	for i, v := range noise(3, 1024) {
		cbuf[i] = complex(v, 0)
	}
	add("fft.roundtrip.1024", func() {
		fp.Forward(cbuf)
		fp.Inverse(cbuf)
	})

	// Packed real-input forward transform (the Welch/render workhorse).
	rp := dsp.PlanRFFT(1024)
	rin := noise(4, 1024)
	rout := make([]complex128, rp.Bins())
	add("fft.rfft.1024", func() {
		rp.Forward(rout, rin)
	})

	// Streaming convolver, per-sample path: the ear secondary path in the
	// simulator's inner loop (kernel below the overlap-save crossover).
	irShort := noise(5, 57)
	scShort := dsp.NewStreamConvolver(irShort)
	xBlock := noise(6, 4096)
	outBlock := make([]float64, 4096)
	add("convolver.block.57x4096", func() {
		scShort.ProcessBlockInto(outBlock, xBlock)
	})

	// Streaming convolver, partitioned overlap-save path (room renders).
	irLong := noise(7, 256)
	scLong := dsp.NewStreamConvolver(irLong)
	add("convolver.ols.256x4096", func() {
		scLong.ProcessBlockInto(outBlock, xBlock)
	})

	// Time-domain LANC per-sample step at the simulator's default shape.
	lanc, err := core.New(core.Config{
		NonCausalTaps: 32, CausalTaps: 160, Mu: 0.05, Normalized: true,
		SecondaryPath: core.EarSecondaryPath(),
	})
	if err != nil {
		return nil, err
	}
	lx := noise(8, 4096)
	li := 0
	add("lanc.step", func() {
		x := lx[li&4095]
		e := 0.01 * lx[(li+7)&4095]
		benchSink += lanc.Step(x, e)
		li++
	})

	// Partitioned frequency-domain LANC, one 32-sample block.
	bl, err := core.NewBlock(core.BlockConfig{
		FilterTaps: 192, BlockSize: 32, Mu: core.DefaultBlockMu,
		SecondaryPath: core.EarSecondaryPath(), NonCausalTaps: 32,
	})
	if err != nil {
		return nil, err
	}
	bx := noise(9, 32)
	be := noise(10, 32)
	for i := range be {
		be[i] *= 0.01
	}
	bout := make([]float64, 32)
	add("blocklanc.block.32", func() {
		if err := bl.ProcessBlockInto(bout, bx, be); err != nil {
			panic(err)
		}
	})

	// GCC-PHAT correlation over a mesh-sized selection window.
	corr, err := relaysel.NewCorrelator(1024)
	if err != nil {
		return nil, err
	}
	local := noise(11, 1024)
	fwd := make([]float64, 1024)
	copy(fwd[0:], local[40:]) // forwarded copy leads by 40 samples
	var dst relaysel.Correlation
	add("gccphat.correlate.1024", func() {
		if err := corr.Correlate(&dst, fwd, local, 128); err != nil {
			panic(err)
		}
	})

	// The fleet's FDAF shape: a 32-point real transform, and one block of
	// the partitioned filter at M = 64, B = 16 (four partitions).
	rp32 := dsp.PlanRFFT(32)
	rin32 := noise(12, 32)
	rout32 := make([]complex128, rp32.Bins())
	add("fft.rfft.32", func() {
		rp32.Forward(rout32, rin32)
	})
	bl16, err := core.NewBlock(core.BlockConfig{
		FilterTaps: 64, BlockSize: 16, Mu: core.DefaultBlockMu,
		SecondaryPath: core.EarSecondaryPath(), NonCausalTaps: 16,
	})
	if err != nil {
		return nil, err
	}
	bx16 := noise(13, 16)
	be16 := noise(14, 16)
	for i := range be16 {
		be16[i] *= 0.01
	}
	bout16 := make([]float64, 16)
	add("blocklanc.block.16", func() {
		if err := bl16.ProcessBlockInto(bout16, bx16, be16); err != nil {
			panic(err)
		}
	})

	return entries, nil
}

// figsDuration is the simulated seconds behind every figs-suite number;
// tests shrink it.
var figsDuration = 12.0

func runFigs() ([]Entry, error) {
	entries := []Entry{calibrateEntry()}

	// Figure 12 end to end on one worker: the headline wall-time number.
	// Best of three for the same reason measure takes the fastest round —
	// the later rounds also run with the acoustic render cache warm, which
	// is the steady state of any process that runs more than one figure.
	const rounds = 3
	var wall time.Duration
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if _, err := experiments.Fig12(experiments.Config{Duration: figsDuration, Workers: 1}); err != nil {
			return nil, err
		}
		if el := time.Since(start); r == 0 || el < wall {
			wall = el
		}
	}
	entries = append(entries, Entry{
		Name: "fig12.wall", Value: float64(wall.Nanoseconds()) / 1e6, Unit: "ms", Iters: rounds,
	})

	// Single-run realtime factors: simulated seconds per wall second for
	// the default time-domain canceller and the partitioned FDAF path.
	runs := []struct {
		name  string
		fdaf  bool
		block int
	}{
		{"mute_hollow.td", false, 0},
		{"mute_hollow.fdaf32", true, 32},
	}
	for _, rc := range runs {
		var best, db float64
		for r := 0; r < rounds; r++ {
			rtf, d, err := simRealtime(rc.fdaf, rc.block)
			if err != nil {
				return nil, err
			}
			if rtf > best {
				best, db = rtf, d // db is deterministic; rtf noise only loses
			}
		}
		entries = append(entries,
			Entry{Name: rc.name + ".rtf", Value: best, Unit: "x", Iters: rounds},
			Entry{Name: rc.name + ".db", Value: db, Unit: "dB", Iters: rounds},
		)
	}
	return entries, nil
}

// simRealtime runs one MUTE_Hollow simulation and reports its realtime
// factor and band cancellation.
func simRealtime(fdaf bool, block int) (rtf, db float64, err error) {
	p := sim.DefaultParams(sim.DefaultScene(audio.NewWhiteNoise(1, 8000, 0.5)))
	p.Duration = figsDuration
	if fdaf {
		p.BlockFDAF = true
		p.BlockSize = block
	}
	start := time.Now()
	r, err := sim.Run(p, sim.MUTEHollow)
	wall := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	db, err = r.CancellationDB(50, 4000)
	if err != nil {
		return 0, 0, err
	}
	return p.Duration / wall.Seconds(), db, nil
}
