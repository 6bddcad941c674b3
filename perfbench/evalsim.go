package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mute/internal/audio"
	"mute/internal/experiments"
	"mute/internal/sim"
	"mute/internal/stream"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// The eval-sim workload is the researcher's path on one worker. A round
// runs three cells in order:
//
//   - experiments.Fig12: four schemes, Bose FxLMS baselines included;
//   - a sim.Run of MUTE_Hollow on the FDAF path with B = 32;
//   - a sim.Run of MUTE_Hollow over a packetized link with burst loss,
//     relay clock skew and drift correction, under supervision.
//
// Each cell's simulated duration is simSeconds, the same length as the
// figs suite in BENCH_figs.json.
const simSeconds = 12.0

// simCells is one round's three cells for one seed.
type simCells struct {
	seed uint64
	dur  float64
}

// cellResult is what a cell hands back for checking: its band
// cancellation values (bit-compared across rounds) and its simulated
// 10 ms ear-blocks.
type cellResult struct {
	dbs    []float64
	blocks float64
}

func (c simCells) scene() sim.Params {
	p := sim.DefaultParams(sim.DefaultScene(audio.NewWhiteNoise(c.seed, 8000, 0.5)))
	p.Duration = c.dur
	p.Seed = c.seed
	return p
}

// fig12 returns the Fig12 curves flattened: every series point, in order.
func (c simCells) fig12(reg *telemetry.Registry) (cellResult, error) {
	fig, err := experiments.Fig12(experiments.Config{Duration: c.dur, Seed: c.seed, Workers: 1, Telemetry: reg})
	if err != nil {
		return cellResult{}, err
	}
	var out cellResult
	for _, s := range fig.Series {
		out.dbs = append(out.dbs, s.Y...)
	}
	out.blocks = 4 * c.dur * 100
	return out, nil
}

// hollowMean is the Fig12 MUTE_Hollow band average, for the cancels check.
func hollowMean(fig cellResult, bands int) float64 {
	// Series order is Bose_Active, Bose_Overall, MUTE_Hollow, MUTE+Passive.
	ys := fig.dbs[2*bands : 3*bands]
	var s float64
	for _, y := range ys {
		s += y
	}
	return s / float64(len(ys))
}

func (c simCells) run(p sim.Params) (cellResult, error) {
	r, err := sim.Run(p, sim.MUTEHollow)
	if err != nil {
		return cellResult{}, err
	}
	db, err := r.CancellationDB(50, 4000)
	if err != nil {
		return cellResult{}, err
	}
	return cellResult{dbs: []float64{db}, blocks: c.dur * 100}, nil
}

func (c simCells) fdaf32(reg *telemetry.Registry) (cellResult, error) {
	p := c.scene()
	p.BlockFDAF = true
	p.BlockSize = 32
	p.Telemetry = reg
	return c.run(p)
}

func (c simCells) td() (cellResult, error) { return c.run(c.scene()) }

// lossy uses the drift experiment's corrected configuration — 5 ms
// frames, one priming frame, 2% burst loss with mean burst 4, a 100 ppm
// relay clock and the drift estimator + resampler — under the supervisor
// with the outage cells' health thresholds.
func (c simCells) lossy(reg *telemetry.Registry) (cellResult, error) {
	p := c.scene()
	p.LossTransport = &sim.LossTransport{
		Link:         stream.LossParams{Seed: c.seed*2027 + 997, Loss: 0.02, MeanBurst: 4},
		FrameSamples: 40,
		PrimeFrames:  1,
		LossAware:    true,
	}
	p.ClockSkewPPM = 100
	p.DriftCorrect = true
	p.Supervise = true
	p.SupervisorConfig = &supervisor.Config{DegradeThreshold: 0.2, FallbackThreshold: 0.5}
	p.Telemetry = reg
	return c.run(p)
}

// simRound is one round's per-cell results and wall times. refs are the
// reference passes around the cells: cell i runs between refs[i] and
// refs[i+1].
type simRound struct {
	cells [3]cellResult
	wall  [3]time.Duration
	refs  [4]float64
	total time.Duration
}

// normalizedMS is the round's cell walls normalized to the reference
// passes around them, summed, in ms.
func (r simRound) normalizedMS() float64 {
	var t float64
	for i, w := range r.wall {
		t += normalize(ms(w), r.refs[i], r.refs[i+1])
	}
	return t
}

// round runs the three cells; regs (nil when untraced) receive each cell's
// telemetry.
func (c simCells) round(regs *[3]*telemetry.Registry) (simRound, error) {
	var out simRound
	var reg [3]*telemetry.Registry
	if regs != nil {
		reg = *regs
	}
	cells := [3]func(*telemetry.Registry) (cellResult, error){c.fig12, c.fdaf32, c.lossy}
	start := time.Now()
	out.refs[0] = referencePass()
	for i, cell := range cells {
		t0 := time.Now()
		res, err := cell(reg[i])
		if err != nil {
			return out, fmt.Errorf("cell %d: %w", i, err)
		}
		out.wall[i] = time.Since(t0)
		out.cells[i] = res
		out.refs[i+1] = referencePass()
	}
	out.total = time.Since(start)
	return out, nil
}

func (r simRound) blocks() float64 {
	return r.cells[0].blocks + r.cells[1].blocks + r.cells[2].blocks
}

// sameResults reports whether two rounds produced bit-identical values.
func sameResults(a, b simRound) bool {
	for i := range a.cells {
		if len(a.cells[i].dbs) != len(b.cells[i].dbs) {
			return false
		}
		for k, v := range a.cells[i].dbs {
			if math.Float64bits(v) != math.Float64bits(b.cells[i].dbs[k]) {
				return false
			}
		}
	}
	return true
}

func runEvalSim(o runOpts) (*report, error) {
	// One P, as on the fleet workloads: the cells run on one worker, and
	// a collector running on the second vCPU made the heap's peak depend
	// on how far marking got while the cell kept allocating.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := newReport()
	dur, rounds := simSeconds, 5
	if o.tiny {
		dur, rounds = 2, 1
	}
	run := simCells{seed: o.seed, dur: dur}

	// Set-up rounds build a scene and render it cold: rounds of them
	// before the window and as many after it, so setup_s samples the host
	// across the whole run. All but the last round before the window use
	// throwaway seeds, cold in the process-wide render cache because their
	// noise differs; that last one uses the run's seed and leaves its
	// renders warm for the window.
	//
	// A round's cells are normalized to the reference passes around them,
	// like the window's; the rest of the round (the GC, and process start
	// on the first) to the passes at its two ends. setupWall keeps the
	// wall times for the detail lines.
	var setups, setupWall []float64
	throwaways := uint64(0)
	setupRound := func(start time.Time, throwaway bool) (simRound, error) {
		c := run
		if throwaway {
			throwaways++
			c.seed = o.seed + throwaways*1_000_003
		}
		r, err := c.round(nil)
		rep.attempted += 3
		if err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		wall := time.Since(start)
		rest := wall - r.wall[0] - r.wall[1] - r.wall[2]
		setups = append(setups, r.normalizedMS()/1e3+normalize(rest.Seconds(), r.refs[0], r.refs[3]))
		setupWall = append(setupWall, wall.Seconds())
		return r, nil
	}
	var ref simRound
	for k := 0; k < rounds; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		r, err := setupRound(start, k < rounds-1)
		if err != nil {
			return nil, err
		}
		ref = r
	}

	setupRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// Each cell's wall time is normalized to the reference passes around
	// it, as on the fleet workloads.
	var cells [3]normalized
	var tracedWall, untracedWall, tracedNorm, untracedNorm []float64
	// Traced rounds: per-round stage sums and cell spans, and the ledger
	// totals over every traced round.
	var stageMS, spanMS [3][]float64
	var ledgerCells float64
	var ledgerStages [3]float64
	fdafReg := telemetry.NewRegistry()
	deterministic := true
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	n := 0
	var blocks float64
	for ; n < 2 || time.Since(start) < window; n++ {
		// Every round starts on a collected heap, so the peak RSS does
		// not depend on where the collector's pacing fell in the run.
		runtime.GC()
		traced := o.trace && n%2 == 1
		var regs *[3]*telemetry.Registry
		if traced {
			regs = &[3]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry(), telemetry.NewRegistry()}
		}
		r, err := run.round(regs)
		rep.attempted += 3
		if err != nil {
			rep.failed++
			rep.fail("round %d: %v", n, err)
			break
		}
		blocks += r.blocks()
		deterministic = deterministic && sameResults(ref, r)
		if !traced {
			untracedWall = append(untracedWall, ms(r.total))
			untracedNorm = append(untracedNorm, r.normalizedMS())
			for i, w := range r.wall {
				cells[i].add(ms(w), r.refs[i], r.refs[i+1])
			}
			continue
		}
		tracedWall = append(tracedWall, ms(r.total))
		tracedNorm = append(tracedNorm, r.normalizedMS())
		var stages [3]float64
		for i, reg := range regs {
			t := reg.Snapshot().Timers
			for k, name := range []string{"sim.stage.acoustics", "sim.stage.link", "sim.stage.cancel"} {
				stages[k] += t[name].Sum * 1e3
			}
			spanMS[i] = append(spanMS[i], ms(r.wall[i]))
			ledgerCells += ms(r.wall[i])
		}
		for k, v := range stages {
			stageMS[k] = append(stageMS[k], v)
			ledgerStages[k] += v
		}
		fdafReg.Merge(regs[1])
	}
	window = time.Since(start)
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for k := 0; k < rounds; k++ {
		if _, err := setupRound(time.Now(), true); err != nil {
			return nil, err
		}
	}

	// Correctness: finite values, bit-identical rounds, and every
	// MUTE_Hollow cell cancels.
	for i, c := range ref.cells {
		for _, v := range c.dbs {
			rep.check(!math.IsNaN(v) && !math.IsInf(v, 0), "cell %d: non-finite dB value", i)
		}
	}
	rep.check(deterministic, "not deterministic: a timed round differs from the set-up round of seed %d", o.seed)
	bands := len(ref.cells[0].dbs) / 4
	hollow := hollowMean(ref.cells[0], bands)
	fdafDB, lossyDB := ref.cells[1].dbs[0], ref.cells[2].dbs[0]
	rep.check(hollow < -3, "fig12 MUTE_Hollow does not cancel: %.3f dB band mean", hollow)
	rep.check(fdafDB < -3, "FDAF32 cell does not cancel: %.3f dB", fdafDB)
	rep.check(lossyDB < -3, "lossy supervised cell does not cancel: %.3f dB", lossyDB)
	db := (hollow + fdafDB + lossyDB) / 3

	var cellNorm []float64
	for i := range cells {
		cellNorm = append(cellNorm, median(cells[i].norm))
	}
	// The rate leaves out the slowest and fastest 5% of rounds, as the
	// fleet's leaves out steps.
	sbps := ref.blocks() / (trimmedMean(untracedNorm, 0.05) / 1e3)
	rep.note("%d rounds of 3 cells in %.3f s (%d untraced rounds), %.0f s simulated per cell",
		n, window.Seconds(), len(untracedWall), dur)
	rep.note("normalized median cell walls: fig12 %.3f ms, fdaf32 %.3f ms, lossy %.3f ms",
		cellNorm[0], cellNorm[1], cellNorm[2])
	rep.note("wall (not normalized): %.0f blocks/s; median cell walls fig12 %.3f ms, fdaf32 %.3f ms, lossy %.3f ms",
		ref.blocks()*float64(len(untracedWall))/(sum(untracedWall)/1e3),
		median(cells[0].wall), median(cells[1].wall), median(cells[2].wall))
	rep.note("reference pass p5 %.1f ns p50 %.1f ns p95 %.1f ns (nominal %.0f ns)",
		quantile(cells[1].ref, 0.05), quantile(cells[1].ref, 0.5), quantile(cells[1].ref, 0.95), refNominalNS)
	rep.note("setup_s rounds %v (wall %v)", setups, setupWall)
	rep.note("peak RSS %.2f MB after the set-up rounds, %.2f MB after the window", setupRSS, rss)
	rep.note("sim_rtf %.2f x; cells: fig12 MUTE_Hollow %.4f dB, fdaf32 %.6f dB, lossy %.6f dB",
		sbps/100, hollow, fdafDB, lossyDB)

	if !o.trace {
		rep.set("setup_s", median(setups))
		rep.set("session_blocks_per_s", sbps)
		rep.set("block_p50_ms", quantile(cellNorm, 0.5))
		rep.set("block_p90_ms", quantile(cellNorm, 0.9))
		rep.set("cancel_db", db)
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}
	rep.set("sim.stage.acoustics_ms", median(stageMS[0]))
	rep.set("sim.stage.link_ms", median(stageMS[1]))
	rep.set("sim.stage.cancel_ms", median(stageMS[2]))
	rep.set("experiments.fig12_ms", median(spanMS[0]))
	rep.set("sim.run.fdaf32_ms", median(spanMS[1]))
	rep.set("sim.run.lossy_ms", median(spanMS[2]))
	if h, ok := fdafReg.Snapshot().Histograms["lanc.block_ns"]; ok {
		rep.set("graph.fdaf.block_ns_p50", h.Quantile(0.5))
	} else {
		rep.fail("the FDAF32 cell published no lanc.block_ns histogram")
	}
	var ledgerWall float64
	for _, w := range tracedWall {
		ledgerWall += w
	}
	checkLedger(rep, ledgerWall, map[string]float64{
		"ledger.sim_acoustics_ms": ledgerStages[0],
		"ledger.sim_link_ms":      ledgerStages[1],
		"ledger.sim_cancel_ms":    ledgerStages[2],
		"ledger.sim_other_ms":     ledgerCells - ledgerStages[0] - ledgerStages[1] - ledgerStages[2],
	})
	rep.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.set("runtime.alloc_bytes_per_session_block", float64(ms1.TotalAlloc-ms0.TotalAlloc)/blocks)
	rep.set("trace.overhead_pct", 100*(median(tracedNorm)/median(untracedNorm)-1))
	rep.set("host.reference_ns", median(cells[1].ref))
	rep.set("error_ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	zeroIdle(rep)
	return rep, nil
}
