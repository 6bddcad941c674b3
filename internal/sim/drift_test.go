package sim

import (
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/graph"
	"mute/internal/stream"
)

// driftRef renders a deterministic sine reference for transport-level
// drift tests.
func driftRef(n int, freq float64) []float64 {
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = 0.5 * math.Sin(2*math.Pi*freq*float64(i)/8000)
	}
	return ref
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDriftCorrectCleanClockIdentity pins the transport's zero-skew
// identities: a zero Skew and DriftCorrect at zero skew — estimator,
// resampler and all — change no sample, no mask bit and no link/jitter
// counter of a loss-only run, even under burst loss and FEC recovery,
// and the estimator reads exactly zero. Drift correction left enabled on
// a healthy clock costs nothing.
func TestDriftCorrectCleanClockIdentity(t *testing.T) {
	ref := driftRef(8000, 200)
	base := *burstTransport()
	wantRecv, wantMask, wantStats, _ := packetize(t, ref, base)
	variants := map[string]LossTransport{
		"driftCorrectNoSkew": func() LossTransport { lt := base; lt.DriftCorrect = true; return lt }(),
		"zeroSkewNaive":      func() LossTransport { lt := base; lt.Skew = &stream.SkewParams{}; return lt }(),
		"zeroSkewCorrected": func() LossTransport {
			lt := base
			lt.Skew = &stream.SkewParams{}
			lt.DriftCorrect = true
			return lt
		}(),
	}
	for name, lt := range variants {
		recv, mask, stats, _ := packetize(t, ref, lt)
		if !sameFloats(recv, wantRecv) {
			t.Errorf("%s: received samples diverge from the loss-only run", name)
		}
		if !sameBools(mask, wantMask) {
			t.Errorf("%s: concealment mask diverges from the loss-only run", name)
		}
		if stats.Jitter != wantStats.Jitter || stats.Link != wantStats.Link ||
			stats.FECRecovered != wantStats.FECRecovered {
			t.Errorf("%s: transport counters diverge: %+v vs %+v", name, stats, wantStats)
		}
		if stats.Drift == nil {
			t.Errorf("%s: missing drift report", name)
		} else if stats.Drift.FinalPPM != 0 || stats.Drift.MaxAbsPPM != 0 {
			t.Errorf("%s: estimator drifted off exact zero: %+v", name, stats.Drift)
		}
	}
}

// TestDriftCorrectCleanClockIdentityEngine pins the identity end to end:
// a full simulated run over the burst-loss transport is bit-identical with
// and without drift correction when the relay clock is healthy, including
// the lookahead budget (the resampler guard is only charged under real
// skew).
func TestDriftCorrectCleanClockIdentityEngine(t *testing.T) {
	run := func(correct bool) *Result {
		p := DefaultParams(DefaultScene(audio.NewWhiteNoise(1, 8000, 0.5)))
		p.Duration = 1
		p.Seed = 1
		p.LossTransport = burstTransport()
		p.DriftCorrect = correct
		res, err := Run(p, MUTEHollow)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, corr := run(false), run(true)
	if !sameFloats(base.On, corr.On) || !sameFloats(base.Residual, corr.Residual) {
		t.Error("drift-corrected run diverges from baseline on a clean clock")
	}
	if base.Budget != corr.Budget || base.UsedNonCausalTaps != corr.UsedNonCausalTaps {
		t.Errorf("lookahead budget changed with no skew: %+v vs %+v", base.Budget, corr.Budget)
	}
	if corr.Transport == nil || corr.Transport.Drift == nil {
		t.Fatal("corrected run missing drift report")
	}
	if d := corr.Transport.Drift; d.FinalPPM != 0 || len(d.RateJumps) != 0 {
		t.Errorf("estimator not exactly zero on clean clock: %+v", d)
	}
}

// TestDriftTransportCorrectsSkew checks the closed loop at a real 100 ppm
// skew: the estimator locks near the true value, occupancy stays bounded,
// and the resampled reference stays far better aligned to the capture
// clock than the uncorrected playout.
func TestDriftTransportCorrectsSkew(t *testing.T) {
	const n = 5 * 8000
	ref := driftRef(n, 200)
	skew := func(correct bool) ([]float64, *DriftReport, []graph.DriftWindow) {
		lt := LossTransport{
			FrameSamples: 40,
			PrimeFrames:  1,
			LossAware:    true,
			Skew:         &stream.SkewParams{PPM: 100},
			DriftCorrect: correct,
		}
		recv, _, stats, wins := packetize(t, ref, lt)
		return recv, stats.Drift, wins
	}
	naive, _, naiveWins := skew(false)
	corr, corrRep, corrWins := skew(true)
	if !corrWins[len(corrWins)-1].Locked {
		t.Fatal("estimator failed to lock at constant 100 ppm skew")
	}
	if d := corrRep.FinalPPM - 100; d < -10 || d > 10 {
		t.Errorf("final estimate %.2f ppm, want ~100", corrRep.FinalPPM)
	}
	if o := corrRep.FinalOccErr; o < -8 || o > 8 {
		t.Errorf("final occupancy error %.2f samples, want ~0", o)
	}
	if naiveWins[len(naiveWins)-1].RatePPM != 0 || corrWins[len(corrWins)-1].RatePPM == 0 {
		t.Error("resampler rate applied without correction, or missing with it")
	}
	rms := func(x []float64) float64 {
		var s float64
		for i := n / 2; i < n; i++ {
			d := x[i] - ref[i]
			s += d * d
		}
		return math.Sqrt(s / float64(n/2))
	}
	naiveErr, corrErr := rms(naive), rms(corr)
	if corrErr > naiveErr/3 {
		t.Errorf("corrected alignment error %.4f not well below naive %.4f", corrErr, naiveErr)
	}
	if corrErr > 0.1 {
		t.Errorf("corrected alignment error %.4f too large", corrErr)
	}
}

// TestDriftReportFlagsOscillatorStep checks that a mid-run frequency step
// trips the estimator's jump detector and lands in the report.
func TestDriftReportFlagsOscillatorStep(t *testing.T) {
	const n = 5 * 8000
	ref := driftRef(n, 200)
	lt := LossTransport{
		FrameSamples: 40,
		PrimeFrames:  1,
		LossAware:    true,
		Skew: &stream.SkewParams{
			PPM:   50,
			Steps: []stream.SkewStep{{AtSample: 20000, DeltaPPM: 300}},
		},
		DriftCorrect: true,
	}
	_, _, stats, _ := packetize(t, ref, lt)
	rep := stats.Drift
	if len(rep.RateJumps) == 0 {
		t.Error("oscillator step not flagged in RateJumps")
	}
	for _, at := range rep.RateJumps {
		if at < 20000-400 {
			t.Errorf("rate jump flagged at %d, before the step landed", at)
		}
	}
	if rep.MaxAbsPPM < 200 {
		t.Errorf("max estimate %.1f ppm never tracked the 350 ppm plateau", rep.MaxAbsPPM)
	}
}

// TestEngineSkewDrivesSupervisor checks the health wiring: on an otherwise
// clean link, an excessive uncorrected skew alone demotes the supervised
// canceller off the LANC rung.
func TestEngineSkewDrivesSupervisor(t *testing.T) {
	p := DefaultParams(DefaultScene(audio.NewWhiteNoise(1, 8000, 0.5)))
	p.Duration = 2
	p.Seed = 1
	p.LossTransport = &LossTransport{FrameSamples: 40, PrimeFrames: 1, LossAware: true}
	p.ClockSkewPPM = 400
	p.Supervise = true
	res, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision == nil {
		t.Fatal("missing supervision report")
	}
	if len(res.Supervision.Transitions) == 0 {
		t.Error("400 ppm skew on a clean link caused no supervisor transition")
	}
	if res.Transport == nil || res.Transport.Drift == nil {
		t.Fatal("missing drift report")
	}
	if res.Transport.Drift.MaxAbsPPM < 250 {
		t.Errorf("drift estimate %.1f never crossed the degrade threshold", res.Transport.Drift.MaxAbsPPM)
	}
}

// TestGoldenTraceDrift pins the full stage trace of a drift-corrected run
// over the burst-loss link with a 200 ppm skewed relay clock: the drift
// stage's estimator series joins the stream/lookahead/LANC/budget events,
// and the budget now carries the resampler guard.
func TestGoldenTraceDrift(t *testing.T) {
	tr, res := goldenRun(t, func() *LossTransport {
		lt := burstTransport()
		lt.Skew = &stream.SkewParams{PPM: 200}
		lt.DriftCorrect = true
		return lt
	}())
	checkBudgetInvariant(t, tr, res)
	stages := map[string]bool{}
	guard := false
	for _, ev := range tr.Events() {
		stages[ev.Stage] = true
		if ev.Stage == "budget" && ev.Name == "drift.resampler" {
			guard = true
		}
	}
	if !stages["drift"] {
		t.Error("drift stage missing from trace")
	}
	if !guard {
		t.Error("drift.resampler budget entry missing")
	}
	checkGolden(t, "golden_drift", tr)
}
