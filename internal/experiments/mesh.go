package experiments

import (
	"mute/internal/mesh"
	"mute/internal/sim"
	"mute/internal/telemetry"
)

// meshSeries is one policy × trajectory × churn combination swept across
// relay counts.
type meshSeries struct {
	name    string
	walking bool
	naive   bool
	churn   float64
}

// MeshSweep measures the dense-mesh cancellation floor against relay
// count, source trajectory, and mesh churn, with the naive per-round
// argmax reselection as the baseline the hysteretic handoff policy is
// judged against.
//
// Every cell runs the full mesh supervisor inside the cancellation graph:
// seeded relay scatter, walking or static source, background burst loss
// on every link, and — in the churn cells — 10%/min crash churn plus
// three flapping relays pinned along the source path, flapping faster
// than the heartbeat timeout so they stay live and acoustically tempting.
// Policies sharing a relay count share seeds, so curves differ only by
// policy; the figure is deterministic for any worker count.
func MeshSweep(c Config) (*Figure, error) {
	c = c.Defaults()
	counts := []int{12, 50, 120}
	series := []meshSeries{
		{"hysteretic_static_source", false, false, 0},
		{"hysteretic_walk", true, false, 0},
		{"hysteretic_walk_churn", true, false, 0.10},
		{"naive_walk", true, true, 0},
		{"naive_walk_churn", true, true, 0.10},
	}

	// Each cell averages a small seed ensemble: churn schedules and relay
	// scatters vary enough run-to-run that a single draw can flatter or
	// sandbag either policy by a couple of dB.
	const ensemble = 3
	cells := len(series) * len(counts)
	runs := make([]*sim.MeshResult, cells*ensemble)
	kids := telemetryChildren(c.Telemetry, len(runs))
	err := parallelFor(c.Workers, len(runs), func(i int) error {
		s := series[i/(len(counts)*ensemble)]
		ci := (i / ensemble) % len(counts)
		// Paired seeds: every series at one (relay count, ensemble slot)
		// shares the relay layout, noise, and fault schedule, so curves
		// differ only by association policy.
		r, err := sim.RunMesh(sim.MeshScenario{
			SampleRate:  c.SampleRate,
			Duration:    c.Duration,
			Relays:      counts[ci],
			Seed:        c.Seed + uint64(ci)*13 + uint64(i%ensemble)*1031,
			NoiseAmp:    c.NoiseAmp,
			Walking:     s.walking,
			ChurnPerMin: s.churn,
			Naive:       s.naive,
			Telemetry:   childTelemetry(kids, i),
		})
		if err != nil {
			return err
		}
		runs[i] = r
		if reg := childTelemetry(kids, i); reg != nil {
			// Observation only: the run never branches on reg, so the
			// figure is byte-identical with telemetry on or off.
			reg.Counter("mesh.runs").Inc()
			reg.Counter("mesh.fault_events").Add(int64(r.FaultEvents))
			reg.Histogram("mesh.cell_residual_db", telemetry.HistogramOpts{Lo: 1e-2, Ratio: 2, Buckets: 16}).Observe(-r.ResidualDB)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeTelemetry(c.Telemetry, kids)

	// Reduce each cell: mean residual, summed supervisor accounting.
	ys := make([]float64, cells)
	reports := make([]mesh.Report, cells)
	for cell := 0; cell < cells; cell++ {
		for e := 0; e < ensemble; e++ {
			r := runs[cell*ensemble+e]
			ys[cell] += r.ResidualDB / ensemble
			addReport(&reports[cell], r.Report)
		}
	}

	fig := &Figure{
		ID:     "mesh",
		Title:  "Dense-mesh cancellation floor vs relay count (hysteretic handoff vs naive reselection)",
		XLabel: "relays in mesh",
		YLabel: "residual vs no-ANC (dB)",
	}
	at := func(si, ci int) mesh.Report { return reports[si*len(counts)+ci] }
	for si, s := range series {
		ser := Series{Name: s.name}
		for ci, n := range counts {
			ser.X = append(ser.X, float64(n))
			ser.Y = append(ser.Y, ys[si*len(counts)+ci])
		}
		fig.Series = append(fig.Series, ser)
	}

	// Acceptance cell: 50 relays, walking source, 10%/min churn. The
	// quoted counts are ensemble totals; policies share seeds, so the
	// ratio is apples-to-apples.
	mid := 1 // counts[1] == 50
	db := func(si, ci int) float64 { return ys[si*len(counts)+ci] }
	hystChurn, naiveChurn := at(2, mid), at(4, mid)
	fig.Notes = append(fig.Notes,
		note("50 relays, walking source: hysteretic %.1f dB; +10%%/min churn and flappers %.1f dB (churn costs %.1f dB)",
			db(1, mid), db(2, mid), db(2, mid)-db(1, mid)),
		note("same churn cell, naive reselection: %.1f dB (loses %.1f dB) with %d switches vs hysteretic %d (%d flaps suppressed)",
			db(4, mid), db(4, mid)-db(2, mid),
			naiveChurn.Handoffs, hystChurn.Handoffs, hystChurn.FlapsSuppressed),
		note("hysteretic churn cell absorbed %d membership changes (%d expirations, %d rejoins) with %d emergency handoffs and %d orphaned windows",
			hystChurn.MembershipChanges(), hystChurn.Expirations, hystChurn.Rejoins,
			hystChurn.EmergencyHandoffs, hystChurn.OrphanedWindows),
		note("selection stayed O(k): %d correlations over %d rounds (%d distress) in the 120-relay hysteretic churn cells",
			at(2, 2).Correlations, at(2, 2).Rounds, at(2, 2).DistressRounds))
	return fig, nil
}

// addReport accumulates one run's supervisor accounting into a cell total.
func addReport(dst *mesh.Report, r mesh.Report) {
	dst.Joins += r.Joins
	dst.Rejoins += r.Rejoins
	dst.Expirations += r.Expirations
	dst.Live += r.Live
	dst.Rounds += r.Rounds
	dst.Correlations += r.Correlations
	dst.DistressRounds += r.DistressRounds
	dst.Handoffs += r.Handoffs
	dst.EmergencyHandoffs += r.EmergencyHandoffs
	dst.FlapsSuppressed += r.FlapsSuppressed
	dst.OrphanedWindows += r.OrphanedWindows
	dst.OrphanedSamples += r.OrphanedSamples
}
