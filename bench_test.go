// Package repro_test is the top-level benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates its experiment end to end on the simulator and reports the
// headline numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Per-module micro-benchmarks (FFT,
// convolution, headphone step, LANC step, FM link, GCC-PHAT) live in their
// packages.
package repro_test

import (
	"testing"

	"mute/internal/experiments"
)

// benchCfg keeps full-evaluation benchmarks at a few seconds per run.
func benchCfg() experiments.Config {
	return experiments.Config{Duration: 8}
}

// reportBandAvg attaches a figure's series band averages as custom
// benchmark metrics (dB, reported negative = cancellation).
func reportBandAvg(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		var sum float64
		for _, y := range s.Y {
			sum += y
		}
		if len(s.Y) > 0 {
			b.ReportMetric(sum/float64(len(s.Y)), "avg:"+sanitize(s.Name))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '/' || r == '(' || r == ')':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func runFig(b *testing.B, id string) {
	b.Helper()
	fn, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = fn(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if fig != nil {
		reportBandAvg(b, fig)
		for _, n := range fig.Notes {
			b.Logf("%s: %s", id, n)
		}
	}
}

// BenchmarkFig8Convergence regenerates the Figure 8 convergence timelines
// (continuous noise vs intermittent speech vs profiled speech).
func BenchmarkFig8Convergence(b *testing.B) { runFig(b, "fig8") }

// BenchmarkFig12OverallCancellation regenerates Figure 12: the four-scheme
// cancellation comparison under wide-band white noise.
func BenchmarkFig12OverallCancellation(b *testing.B) { runFig(b, "fig12") }

// BenchmarkFig13FrequencyResponse regenerates Figure 13: the cheap
// speaker+microphone combined frequency response.
func BenchmarkFig13FrequencyResponse(b *testing.B) { runFig(b, "fig13") }

// BenchmarkFig14SoundTypes regenerates Figure 14: MUTE_Hollow vs
// Bose_Overall on male/female voice, construction sound and music.
func BenchmarkFig14SoundTypes(b *testing.B) { runFig(b, "fig14") }

// BenchmarkFig15HumanExperience regenerates Figure 15: simulated listener
// ratings of MUTE+Passive vs Bose_Overall.
func BenchmarkFig15HumanExperience(b *testing.B) { runFig(b, "fig15") }

// BenchmarkFig16LookaheadImpact regenerates Figure 16: cancellation as the
// delayed-line buffer shrinks lookahead toward the Equation 3 lower bound.
func BenchmarkFig16LookaheadImpact(b *testing.B) { runFig(b, "fig16") }

// BenchmarkFig17Profiling regenerates Figure 17: the additional
// cancellation from lookahead-enabled filter switching.
func BenchmarkFig17Profiling(b *testing.B) { runFig(b, "fig17") }

// BenchmarkFig18GCCPHAT regenerates Figure 18: GCC-PHAT correlation for
// positive- and negative-lookahead relay placements.
func BenchmarkFig18GCCPHAT(b *testing.B) { runFig(b, "fig18") }

// BenchmarkFig19RelaySelection regenerates Figure 19: the multi-relay
// association map over a grid of source positions.
func BenchmarkFig19RelaySelection(b *testing.B) { runFig(b, "fig19") }

// BenchmarkLookaheadTable regenerates the Equation 4 lookahead-vs-distance
// table (1 m ≈ 3 ms).
func BenchmarkLookaheadTable(b *testing.B) { runFig(b, "lookahead") }

// BenchmarkAblationTaps sweeps LANC's non-causal tap count N.
func BenchmarkAblationTaps(b *testing.B) { runFig(b, "ablation-taps") }

// BenchmarkAblationFMSNR sweeps the FM channel SNR.
func BenchmarkAblationFMSNR(b *testing.B) { runFig(b, "ablation-fmsnr") }

// BenchmarkAblationMu sweeps LANC's adaptation step on intermittent speech.
func BenchmarkAblationMu(b *testing.B) { runFig(b, "ablation-nlms") }

// BenchmarkVariants compares the Section 4.3 architectural variants
// (wall relay, tabletop, smart noise).
func BenchmarkVariants(b *testing.B) { runFig(b, "variants") }

// BenchmarkMobility measures the head-mobility tracking cost of Section 6.
func BenchmarkMobility(b *testing.B) { runFig(b, "mobility") }

// BenchmarkContention quantifies ISM-band occupancy and co-channel
// interference (Section 6).
func BenchmarkContention(b *testing.B) { runFig(b, "contention") }

// BenchmarkTracker exercises the Section 4.2 periodic re-correlation
// following a moving source.
func BenchmarkTracker(b *testing.B) { runFig(b, "tracker") }

// BenchmarkMultiSource compares single vs multi-reference LANC on two
// simultaneous noise sources (the paper's Section 6 future work).
func BenchmarkMultiSource(b *testing.B) { runFig(b, "multisource") }

// BenchmarkAblationRLS compares NLMS and RLS tracking across an abrupt
// channel change (the head-mobility mitigation the paper cites).
func BenchmarkAblationRLS(b *testing.B) { runFig(b, "ablation-rls") }
