package main

// metricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json at the repository root lists the same metrics;
// the self-test checks that the two agree.
type metricDef struct {
	name, unit, better string
}

// endToEnd is the untraced run's section: what a user of the system sees.
// Every workload reports every metric (see README.md for how each reads on
// a fleet workload and on eval-sim).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"session_blocks_per_s", "1/s", "higher"},
	{"block_p50_ms", "ms", "lower"},
	{"block_p90_ms", "ms", "lower"},
	{"cancel_db", "dB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is the traced run's section. A layer a workload leaves idle
// reports 0 there.
var perLayer = []metricDef{
	// fleet: demux, tick, lifecycle, setup memo, frame pool, telemetry.
	{"fleet.ingest.ns_per_record", "ns", "lower"},
	{"fleet.ingest.share", "ratio", "lower"},
	{"fleet.tick.ns_per_session_block", "ns", "lower"},
	{"fleet.tick.share", "ratio", "lower"},
	{"fleet.tick.allocs_per_tick", "count", "lower"},
	{"fleet.open.ns_p50", "ns", "lower"},
	{"fleet.open.ns_p90", "ns", "lower"},
	{"fleet.open.count", "count", "higher"},
	{"fleet.close.ns_p50", "ns", "lower"},
	{"fleet.close.count", "count", "higher"},
	{"fleet.cache.hit_ratio", "ratio", "higher"},
	{"fleet.pool.reuse_ratio", "ratio", "higher"},
	{"fleet.merge_ms", "ms", "lower"},
	{"fleet.frames_in", "count", "higher"},
	{"fleet.unknown_session", "count", "lower"},
	{"fleet.bad_envelope", "count", "lower"},
	{"fleet.quarantined", "count", "lower"},
	// stream: the per-session jitter buffers behind the demux.
	{"stream.jitter.concealed_ratio", "ratio", "lower"},
	{"stream.jitter.late_ratio", "ratio", "lower"},
	{"stream.jitter.duplicate_ratio", "ratio", "lower"},
	// the benchmark's own load generator, so its cost is never read as
	// a server change.
	{"gen.link.ns_per_frame", "ns", "lower"},
	{"gen.share", "ratio", "lower"},
	// graph/core/dsp: the planned-FFT block canceller.
	{"graph.fdaf.block_ns_p50", "ns", "lower"},
	// sim/acoustics/experiments.
	{"sim.stage.acoustics_ms", "ms", "lower"},
	{"sim.stage.link_ms", "ms", "lower"},
	{"sim.stage.cancel_ms", "ms", "lower"},
	{"experiments.fig12_ms", "ms", "lower"},
	{"sim.run.fdaf32_ms", "ms", "lower"},
	{"sim.run.lossy_ms", "ms", "lower"},
	// runtime and host.
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_bytes_per_session_block", "B", "lower"},
	{"host.calibrate_ns", "ns", "lower"},
	{"host.calibrate_after_ns", "ns", "lower"},
	{"host.reference_ns", "ns", "lower"},
	// the traced window's ledger: stage self times + unattributed = wall.
	{"ledger.wall_ms", "ms", "lower"},
	{"ledger.gen_ms", "ms", "lower"},
	{"ledger.ingest_ms", "ms", "lower"},
	{"ledger.churn_ms", "ms", "lower"},
	{"ledger.tick_ms", "ms", "lower"},
	{"ledger.merge_ms", "ms", "lower"},
	{"ledger.sim_acoustics_ms", "ms", "lower"},
	{"ledger.sim_link_ms", "ms", "lower"},
	{"ledger.sim_cancel_ms", "ms", "lower"},
	{"ledger.sim_other_ms", "ms", "lower"},
	{"ledger.unattributed_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"error_ratio", "ratio", "lower"},
}

// ledgerStages are the ledger entries that must add up, with
// ledger.unattributed_ms, to ledger.wall_ms.
var ledgerStages = []string{
	"ledger.gen_ms", "ledger.ingest_ms", "ledger.churn_ms", "ledger.tick_ms", "ledger.merge_ms",
	"ledger.sim_acoustics_ms", "ledger.sim_link_ms", "ledger.sim_cancel_ms", "ledger.sim_other_ms",
}

// zeroIdle sets every per-layer metric the workload did not report to 0:
// the layer did no work on it.
func zeroIdle(r *report) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.metrics[m.name] = 0
		}
	}
}

// checkLedger verifies the ledger identity: stage self times are
// non-negative and sum to no more than the wall they were measured in, so
// the remainder, ledger.unattributed_ms, is non-negative and the stages
// plus the remainder give the wall exactly.
func checkLedger(r *report, wallMS float64, stages map[string]float64) {
	var sum float64
	for _, name := range ledgerStages {
		v := stages[name]
		r.check(v >= 0, "ledger stage %s is negative (%g ms)", name, v)
		r.set(name, v)
		sum += v
	}
	un := wallMS - sum
	r.check(un >= 0, "ledger stages (%g ms) exceed the traced wall (%g ms)", sum, wallMS)
	r.set("ledger.wall_ms", wallMS)
	r.set("ledger.unattributed_ms", un)
	r.note("ledger: wall %.3f ms = stages %.3f ms + unattributed %.3f ms", wallMS, sum, un)
}
