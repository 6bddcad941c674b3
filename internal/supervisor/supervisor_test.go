package supervisor

import (
	"math"
	"reflect"
	"testing"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/headphone"
)

// testPair builds a small LANC (N=4, L=8, loss-aware) and a matching local
// fallback for ladder tests.
func testPair(t *testing.T) (*core.LANC, *headphone.ANC) {
	t.Helper()
	lanc, err := core.New(core.Config{
		NonCausalTaps: 4,
		CausalTaps:    8,
		Mu:            0.1,
		Normalized:    true,
		SecondaryPath: []float64{1},
		LossAware:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := headphone.NewANC(8000, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return lanc, fb
}

// testConfig is the outage cells' health thresholds on the ladder's fixed
// tuning. Its starvation run leaves an outage room to breach the ratio
// threshold and wait out the dwell — DEGRADED after about 121 concealed
// samples — before the run forces FALLBACK.
func testConfig() Config {
	return Config{DegradeThreshold: 0.2, FallbackThreshold: 0.5, StarvationRun: 160}
}

// step runs one sample through the ladder and the legs, as graph's
// supervised kind does, less the window grant graph owns.
func step(s *Supervisor, fwd, local, ePrev float64, real bool) float64 {
	s.Advance(local, ePrev, real)
	return s.StepLegs(fwd, local, ePrev, real)
}

// drive runs the supervisor over a mask schedule with a deterministic
// reference and a simple unit acoustic loop, returning the report.
func drive(t *testing.T, s *Supervisor, mask []bool) Report {
	t.Helper()
	gen := audio.NewWhiteNoise(2, 8000, 0.3)
	e := 0.0
	for _, real := range mask {
		x := gen.Next()
		fwd := x
		if !real {
			fwd = 0 // concealment zero-fills
		}
		a := step(s, fwd, x, e, real)
		e = 0.6*x + a
	}
	return s.Report()
}

// pattern builds a mask schedule from (count, real) runs.
func pattern(runs ...int) []bool {
	var out []bool
	real := true
	for _, n := range runs {
		for i := 0; i < n; i++ {
			out = append(out, real)
		}
		real = !real
	}
	return out
}

// moves reduces a report to its (From, To) pairs.
func moves(r Report) [][2]State {
	var out [][2]State
	for _, tr := range r.Transitions {
		out = append(out, [2]State{tr.From, tr.To})
	}
	return out
}

// TestLadderTransitions is the table-driven dwell/hysteresis suite: each
// case is a concealment schedule and the exact ladder walk it must cause.
func TestLadderTransitions(t *testing.T) {
	cases := []struct {
		name  string
		mask  []bool
		want  [][2]State
		final State
	}{
		{
			name:  "clean link never leaves LANC",
			mask:  pattern(400),
			want:  nil,
			final: StateLANC,
		},
		{
			name: "glitch below threshold and dwell is ridden out",
			// Two concealed samples push the EWMA to ~0.008, under the 0.2
			// demote threshold; no breach ever accumulates.
			mask:  pattern(100, 2, 300),
			want:  nil,
			final: StateLANC,
		},
		{
			name: "sustained moderate loss degrades, recovery promotes",
			// One concealed sample in three sustains an EWMA near 0.33 —
			// over the degrade threshold, under the fallback one, and with
			// no run long enough to starve. The long clean tail then decays
			// the EWMA below half the threshold with a clean run past
			// upDwell.
			mask:  append(pattern(100), append(pattern(repeat3(900)...), pattern(1000)...)...),
			want:  [][2]State{{StateLANC, StateDegraded}, {StateDegraded, StateLANC}},
			final: StateLANC,
		},
		{
			name: "outage walks the ladder down and a probe walks it back",
			// A 200-sample total outage: the EWMA breach demotes to
			// DEGRADED after the dwell, the starvation run then forces
			// FALLBACK, and after the link returns a backoff probe finds
			// it healthy and promotes straight back to LANC.
			mask: pattern(100, 200, 1600),
			want: [][2]State{
				{StateLANC, StateDegraded},
				{StateDegraded, StateFallback},
				{StateFallback, StateLANC},
			},
			final: StateLANC,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lanc, fb := testPair(t)
			s, err := New(testConfig(), lanc, 4, 8, fb)
			if err != nil {
				t.Fatal(err)
			}
			rep := drive(t, s, tc.mask)
			if got := moves(rep); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("transitions = %v, want %v", got, tc.want)
			}
			if rep.FinalState != tc.final {
				t.Fatalf("final state = %v, want %v", rep.FinalState, tc.final)
			}
			var total int64
			for _, n := range rep.TimeInState {
				total += n
			}
			if total != int64(len(tc.mask)) {
				t.Fatalf("TimeInState sums to %d, want %d", total, len(tc.mask))
			}
		})
	}
}

// repeat3 builds runs of (2 real, 1 concealed) totalling about n samples.
func repeat3(n int) []int {
	var runs []int
	for i := 0; i < n/3; i++ {
		runs = append(runs, 2, 1)
	}
	return runs
}

// TestCleanLinkBitIdentity pins the supervisor's zero-cost contract: on a
// link with no concealment the supervised output is bit-identical to the
// wrapped LANC stepped directly.
func TestCleanLinkBitIdentity(t *testing.T) {
	lancA, fb := testPair(t)
	lancB, _ := testPair(t)
	s, err := New(testConfig(), lancA, 4, 8, fb)
	if err != nil {
		t.Fatal(err)
	}
	gen := audio.NewWhiteNoise(9, 8000, 0.3)
	eS, eR := 0.0, 0.0
	for i := 0; i < 2000; i++ {
		x := gen.Next()
		aS := step(s, x, x, eS, true)
		aR := lancB.StepMasked(x, eR, true)
		if aS != aR {
			t.Fatalf("sample %d: supervised %v != raw %v", i, aS, aR)
		}
		eS = 0.6*x + aS
		eR = 0.6*x + aR
	}
	if got := s.Report().Transitions; len(got) != 0 {
		t.Fatalf("clean link produced transitions: %v", got)
	}
}

// TestStarvationBypassesDwell: a dead link must not wait out the EWMA
// dwell — the starvation run forces FALLBACK the moment it is reached,
// with the EWMA still far under the demote threshold and the dwell longer
// than the whole outage.
func TestStarvationBypassesDwell(t *testing.T) {
	lanc, fb := testPair(t)
	cfg := testConfig()
	cfg.StarvationRun = 12
	s, err := New(cfg, lanc, 4, 8, fb)
	if err != nil {
		t.Fatal(err)
	}
	rep := drive(t, s, pattern(50, 20))
	want := [][2]State{{StateLANC, StateFallback}}
	if got := moves(rep); !reflect.DeepEqual(got, want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	tr := rep.Transitions[0]
	if tr.At != 50+int64(cfg.StarvationRun)-1 {
		t.Fatalf("starvation demotion at %d, want %d", tr.At, 50+cfg.StarvationRun-1)
	}
}

// TestProbeBackoffDoubles: while the link stays dead, reacquisition probes
// must fire on an exponential schedule capped at probeMax.
func TestProbeBackoffDoubles(t *testing.T) {
	lanc, fb := testPair(t)
	s, err := New(testConfig(), lanc, 4, 8, fb)
	if err != nil {
		t.Fatal(err)
	}
	// 50 clean, then dead for the rest. FALLBACK is entered at starvation
	// (sample 50+159); probes then wait 400, 800, 1600, 3200, 6400 and,
	// capped, 8000 and 8000: seven probes by sample 28609 of the 30050.
	// Without the cap the sixth wait would be 12800 and only six fit.
	rep := drive(t, s, pattern(50, 30000))
	if rep.Probes != 7 {
		t.Fatalf("%d probes over a 30000-sample outage, want 7", rep.Probes)
	}
	if rep.Probes != rep.FailedProbes {
		t.Fatalf("probes %d != failed %d on a never-recovering link", rep.Probes, rep.FailedProbes)
	}
	if rep.FinalState != StateFallback {
		t.Fatalf("final state %v, want FALLBACK", rep.FinalState)
	}
	if rep.WarmStarts != 1 {
		t.Fatalf("WarmStarts = %d, want 1", rep.WarmStarts)
	}
}

// TestPassthroughDemotionAndRecovery: a fallback whose residual dwarfs the
// open-ear field must mute itself, then probe back to FALLBACK once the
// residual story improves.
func TestPassthroughDemotionAndRecovery(t *testing.T) {
	lanc, fb := testPair(t)
	cfg := testConfig()
	cfg.StarvationRun = 12
	s, err := New(cfg, lanc, 4, 8, fb)
	if err != nil {
		t.Fatal(err)
	}
	// Walk into FALLBACK with an outage.
	gen := audio.NewWhiteNoise(4, 8000, 0.3)
	e := 0.0
	tick := func(real bool, eVal float64) float64 {
		x := gen.Next()
		fwd := x
		if !real {
			fwd = 0
		}
		return step(s, fwd, x, eVal, real)
	}
	for i := 0; i < 50; i++ {
		tick(true, e)
	}
	for i := 0; i < 20; i++ {
		tick(false, 0.1)
	}
	if s.state != StateFallback {
		t.Fatalf("setup failed: state %v, want FALLBACK", s.state)
	}
	// Feed a residual far louder than the open field: ePow EWMA blows past
	// passthroughFactor × openPow within the dwell.
	for i := 0; i < 200 && s.state == StateFallback; i++ {
		tick(false, 5.0)
	}
	if s.state != StatePassthrough {
		t.Fatalf("state %v after runaway residual, want PASSTHROUGH", s.state)
	}
	// PASSTHROUGH emits silence.
	if out := tick(false, 5.0); out != 0 {
		// The crossfade tail may still carry the old leg; skip past it.
		for i := 0; i < crossfadeSamples; i++ {
			out = tick(false, 5.0)
		}
		if out != 0 {
			t.Fatalf("PASSTHROUGH emitted %v, want 0", out)
		}
	}
	// Link recovers with a sane residual: a probe returns to FALLBACK
	// once the clean run passes upDwell.
	for i := 0; i < 3000 && s.state == StatePassthrough; i++ {
		tick(true, 0.05)
	}
	if s.state != StateFallback {
		t.Fatalf("state %v after recovery, want FALLBACK", s.state)
	}
}

// TestCrossfadeIsBounded: across a transition the output must move
// smoothly — no sample may jump beyond what the two legs could produce.
func TestCrossfadeIsBounded(t *testing.T) {
	lanc, fb := testPair(t)
	s, err := New(testConfig(), lanc, 4, 8, fb)
	if err != nil {
		t.Fatal(err)
	}
	gen := audio.NewWhiteNoise(6, 8000, 0.3)
	e := 0.0
	var prev float64
	maxJump := 0.0
	mask := pattern(200, 200, 1600)
	for i, real := range mask {
		x := gen.Next()
		fwd := x
		if !real {
			fwd = 0
		}
		a := step(s, fwd, x, e, real)
		e = 0.6*x + a
		if i > 0 {
			if d := math.Abs(a - prev); d > maxJump {
				maxJump = d
			}
		}
		prev = a
	}
	// The reference is bounded by ~0.3·3σ; a click would show up as a
	// sample-to-sample jump far beyond the signal scale.
	if maxJump > 2 {
		t.Fatalf("output jumped by %g across a transition — crossfade broken", maxJump)
	}
	if len(s.Report().Transitions) == 0 {
		t.Fatal("schedule produced no transitions; test is vacuous")
	}
}

// TestDeterministicTransitionTrace: the same seeded schedule must yield a
// byte-identical transition list on every run.
func TestDeterministicTransitionTrace(t *testing.T) {
	run := func() Report {
		lanc, fb := testPair(t)
		s, err := New(testConfig(), lanc, 4, 8, fb)
		if err != nil {
			t.Fatal(err)
		}
		return drive(t, s, pattern(100, 200, 1600, 180, 2000))
	}
	a, b := run(), run()
	if len(a.Transitions) == 0 {
		t.Fatal("schedule produced no transitions; test is vacuous")
	}
	if !reflect.DeepEqual(a.Transitions, b.Transitions) {
		t.Fatalf("transition traces differ:\n%v\n%v", a.Transitions, b.Transitions)
	}
	if a.Probes != b.Probes || a.TimeInState != b.TimeInState {
		t.Fatal("probe/time-in-state accounting differs between identical runs")
	}
}

// TestPrefilteredLANCBitIdenticalOnEveryRung drives two supervisors
// through the outage walk (LANC → DEGRADED → FALLBACK → LANC), one whose
// LANC has every block announced through Prefilter, and requires
// bit-identical output: the supervisor pushes each forwarded sample on
// every rung, the push-only FALLBACK rung included, so the announced
// filtered-x samples stay aligned.
func TestPrefilteredLANCBitIdenticalOnEveryRung(t *testing.T) {
	build := func() (*Supervisor, *core.LANC) {
		lanc, err := core.New(core.Config{
			NonCausalTaps: 4,
			CausalTaps:    8,
			Mu:            0.1,
			Normalized:    true,
			SecondaryPath: []float64{0.9, -0.3, 0.2, 0.05, -0.01},
			LossAware:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, fb := testPair(t)
		s, err := New(testConfig(), lanc, 4, 8, fb)
		if err != nil {
			t.Fatal(err)
		}
		return s, lanc
	}
	pre, preLANC := build()
	ref, _ := build()
	mask := pattern(100, 200, 1600)
	gen := audio.NewWhiteNoise(2, 8000, 0.3)
	xs := make([]float64, len(mask))
	fwd := make([]float64, len(mask))
	for i, real := range mask {
		xs[i] = gen.Next()
		if real {
			fwd[i] = xs[i] // concealment zero-fills
		}
	}
	const block = 23
	eP, eR := 0.0, 0.0
	for i := range mask {
		if i%block == 0 {
			preLANC.Prefilter(fwd[i:min(i+block, len(fwd))])
		}
		aP := step(pre, fwd[i], xs[i], eP, mask[i])
		aR := step(ref, fwd[i], xs[i], eR, mask[i])
		if math.Float64bits(aP) != math.Float64bits(aR) {
			t.Fatalf("sample %d (%v): prefiltered %v != per-sample %v", i, pre.state, aP, aR)
		}
		eP = 0.6*xs[i] + aP
		eR = 0.6*xs[i] + aR
	}
	want := [][2]State{{StateLANC, StateDegraded}, {StateDegraded, StateFallback}, {StateFallback, StateLANC}}
	if got := moves(ref.Report()); !reflect.DeepEqual(got, want) {
		t.Fatalf("transitions = %v, want %v: the walk no longer covers every rung", got, want)
	}
}
