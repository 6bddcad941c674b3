package graph

import (
	"errors"
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/headphone"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// validConfig returns a minimal buildable sample-domain configuration over
// an in-memory source; tests mutate one field at a time.
func validConfig(n int) Config {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(i%7) * 0.1
	}
	return Config{
		SampleRate: 8000,
		Lookahead:  64,
		Pipeline:   core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1},
		Canceller: CancellerParams{
			CausalTaps:    16,
			Mu:            0.1,
			SecondaryPath: []float64{0.85, 0.22, 0.06},
		},
		Reference:   &SliceSource{Samples: samples},
		Ambient:     &SliceAmbient{Local: samples, Cup: samples},
		SecondaryIR: []float64{0.85, 0.22, 0.06},
	}
}

// TestBuildValidation checks every required binding and the illegal
// combinations fail at Build, not mid-run. Unsupported stage
// combinations are refused with ErrUnsupported (so callers can tell them
// from a missing binding with errors.Is); missing or malformed bindings
// are not.
func TestBuildValidation(t *testing.T) {
	fdaf := &FDAFParams{BlockSize: 64, Mu: 0.05}
	more := func(f func(*Config)) func(*Config) {
		return func(c *Config) {
			c.ExtraReferences = []SampleSource{&SliceSource{Samples: make([]float64, 256)}}
			f(c)
		}
	}
	cases := []struct {
		name        string
		mutate      func(*Config)
		unsupported bool
	}{
		{"zero sample rate", func(c *Config) { c.SampleRate = 0 }, false},
		{"nil reference", func(c *Config) { c.Reference = nil }, false},
		{"nil ambient", func(c *Config) { c.Ambient = nil }, false},
		{"empty secondary IR", func(c *Config) { c.SecondaryIR = nil }, false},
		{"noise without generator", func(c *Config) { c.NoiseRMS = 0.01 }, false},
		{"fdaf with supervisor", func(c *Config) {
			c.FDAF = fdaf
			c.Supervise = true
		}, true},
		{"fdaf with drift control", func(c *Config) {
			c.FDAF = fdaf
			c.Drift = &DriftSource{}
		}, true},
		{"fdaf with profiling", func(c *Config) {
			c.FDAF = fdaf
			c.Canceller.Profiling = true
		}, true},
		{"fdaf with loss-aware", func(c *Config) {
			c.FDAF = fdaf
			c.Canceller.LossAware = true
		}, true},
		{"fdaf with error delay", func(c *Config) {
			c.FDAF = fdaf
			c.ErrorDelay = 2
		}, true},
		{"headphone with fdaf", func(c *Config) {
			c.Headphone = true
			c.FDAF = fdaf
		}, true},
		{"headphone with supervisor", func(c *Config) {
			c.Headphone = true
			c.Supervise = true
		}, true},
		{"headphone with drift control", func(c *Config) {
			c.Headphone = true
			c.Drift = &DriftSource{}
		}, true},
		{"headphone with profiling", func(c *Config) {
			c.Headphone = true
			c.Canceller.Profiling = true
		}, true},
		{"headphone with loss-aware", func(c *Config) {
			c.Headphone = true
			c.Canceller.LossAware = true
		}, true},
		{"headphone with error delay", func(c *Config) {
			c.Headphone = true
			c.ErrorDelay = 2
		}, true},
		{"error delay with supervisor", func(c *Config) {
			c.ErrorDelay = 2
			c.Supervise = true
		}, true},
		{"negative error delay", func(c *Config) { c.ErrorDelay = -1 }, false},
		{"nil extra reference", func(c *Config) { c.ExtraReferences = []SampleSource{nil} }, false},
		{"extra references with fdaf", more(func(c *Config) { c.FDAF = fdaf }), true},
		{"extra references with headphone", more(func(c *Config) { c.Headphone = true }), true},
		{"extra references with supervisor", more(func(c *Config) { c.Supervise = true }), true},
		{"extra references with drift control", more(func(c *Config) { c.Drift = &DriftSource{} }), true},
		{"extra references with profiling", more(func(c *Config) { c.Canceller.Profiling = true }), true},
		{"extra references with loss-aware", more(func(c *Config) { c.Canceller.LossAware = true }), true},
	}
	for _, tc := range cases {
		cfg := validConfig(256)
		tc.mutate(&cfg)
		_, err := Build(cfg)
		if err == nil {
			t.Errorf("%s: Build accepted an invalid config", tc.name)
			continue
		}
		if got := errors.Is(err, ErrUnsupported); got != tc.unsupported {
			t.Errorf("%s: errors.Is(%v, ErrUnsupported) = %v, want %v", tc.name, err, got, tc.unsupported)
		}
	}
}

// TestSupervisedNilConfigStarvesAtWindow pins the ladder's default
// starvation run on the nil-SupervisorConfig path: it is the wrapped
// filter's N+L+1, so a small window demotes to FALLBACK on the concealed
// sample that fills it, long before the ratio threshold's dwell could.
func TestSupervisedNilConfigStarvesAtWindow(t *testing.T) {
	const clean, n = 400, 1200
	cfg := validConfig(n)
	cfg.MaxNonCausalTaps = 8
	cfg.Supervise = true
	window := cfg.MaxNonCausalTaps + cfg.Canceller.CausalTaps
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = i < clean || i > clean+window
	}
	cfg.Reference = &maskedSource{SliceSource: *cfg.Reference.(*SliceSource), mask: mask}
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(n, 64); err != nil {
		t.Fatal(err)
	}
	rep := pl.Supervision()
	var got []supervisor.Transition
	for _, tr := range rep.Transitions {
		if tr.To == supervisor.StateFallback {
			got = append(got, tr)
		}
	}
	// The canceller steps the reference align samples late, so the
	// window+1-th concealed sample is its step align+clean+window.
	want := int64(pl.align + clean + window)
	if len(got) != 1 || got[0].From != supervisor.StateLANC || got[0].At != want {
		t.Fatalf("FALLBACK moves %+v, want one from LANC at step %d after %d concealed samples (transitions %+v)",
			got, want, window+1, rep.Transitions)
	}
}

// TestBuildPlansTaps pins the budget-to-canceller wiring: the planned N
// is the budget's usable-tap count, capped by MaxNonCausalTaps, and the
// spend report stays an identity over the full lookahead.
func TestBuildPlansTaps(t *testing.T) {
	cfg := validConfig(256)
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NonCausalTaps != 60 { // 64 lookahead − 4 pipeline delays
		t.Errorf("planned %d non-causal taps, want 60", pl.NonCausalTaps)
	}
	if pl.Spend.SpentSamples() != cfg.Lookahead {
		t.Errorf("spend report unbalanced: %d of %d", pl.Spend.SpentSamples(), cfg.Lookahead)
	}

	cfg = validConfig(256)
	cfg.MaxNonCausalTaps = 8
	pl, err = Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NonCausalTaps != 8 {
		t.Errorf("capped plan produced %d taps, want 8", pl.NonCausalTaps)
	}
	if pl.Spend.SpentSamples() != cfg.Lookahead {
		t.Errorf("capped spend sums to %d, want %d", pl.Spend.SpentSamples(), cfg.Lookahead)
	}
}

// TestBuildRecordsBudgetTrace checks Build records the spend into the
// caller's trace exactly once, before any samples flow.
func TestBuildRecordsBudgetTrace(t *testing.T) {
	cfg := validConfig(256)
	tr := telemetry.NewTrace()
	cfg.Trace = tr
	if _, err := Build(cfg); err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 0
	for _, ev := range tr.Events() {
		if ev.Stage == telemetry.StageBudget {
			n++
			sum += ev.Values["samples"]
		}
	}
	if n == 0 {
		t.Fatal("Build recorded no budget events")
	}
	if int(sum) != cfg.Lookahead {
		t.Errorf("budget events sum to %g, want %d", sum, cfg.Lookahead)
	}
}

// TestProcessBlockDrainsSource checks the pull loop's termination
// contract: short final blocks report their true size, an exhausted
// source reports zero, and Run stops there.
func TestProcessBlockDrainsSource(t *testing.T) {
	const total = 100
	cfg := validConfig(total)
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pl.ProcessBlock(64); err != nil || got != 64 {
		t.Fatalf("first block: got %d, %v; want 64", got, err)
	}
	if got, err := pl.ProcessBlock(64); err != nil || got != total-64 {
		t.Fatalf("final block: got %d, %v; want %d", got, err, total-64)
	}
	if got, err := pl.ProcessBlock(64); err != nil || got != 0 {
		t.Fatalf("drained source: got %d, %v; want 0", got, err)
	}
	if pl.Samples() != total {
		t.Errorf("pipeline processed %d samples, want %d", pl.Samples(), total)
	}
	if _, err := pl.ProcessBlock(0); err == nil {
		t.Error("ProcessBlock accepted a non-positive block size")
	}
}

// TestLiveHooksRegistry checks the live instantiation registers the
// canonical gauge/counter names (OBSERVABILITY.md) and feeds them per
// block.
func TestLiveHooksRegistry(t *testing.T) {
	cfg := validConfig(160)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	cfg.LiveHooks = true
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(160, 80); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pipeline.samples"]; got != 160 {
		t.Errorf("pipeline.samples = %d, want 160", got)
	}
	if _, ok := snap.Gauges["lanc.tap_energy"]; !ok {
		t.Error("lanc.tap_energy gauge missing from the live registry")
	}
}

// kindSignals renders a white-noise reference and the under-cup field it
// produces through a short primary channel.
func kindSignals(n int) (x, cup []float64) {
	rng := audio.NewRNG(11)
	x = make([]float64, n)
	for i := range x {
		x[i] = 0.5 * rng.Uniform()
	}
	cup = dsp.NewStreamConvolver([]float64{0, 0.9, 0.35, -0.1}).ProcessBlock(x)
	return x, cup
}

// runKind builds cfg over (x, cup) with error-mic noise and returns the
// residual, so a test-side loop can be compared against it bit for bit.
func runKind(t *testing.T, cfg Config, x, cup []float64) (*Pipeline, []float64) {
	t.Helper()
	residual := make([]float64, len(x))
	cfg.Reference = &SliceSource{Samples: x}
	cfg.Ambient = &SliceAmbient{Local: x, Cup: cup}
	cfg.NoiseRMS = 1e-3
	cfg.Noise = audio.NewRNG(3)
	cfg.Residual = residual
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(len(x), 64); err != nil {
		t.Fatal(err)
	}
	return pl, residual
}

// sameBits fails at the first sample where the two residuals differ in
// any bit.
func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d: pipeline %v, hand loop %v", i, got[i], want[i])
		}
	}
}

// TestHeadphoneKindMatchesHandLoop shows the Headphone kind is exactly a
// headphone.ANC stepped on the reference against the previous sample's
// noisy error — the loop the Bose baselines used to run by hand — and that it
// plans and traces no lookahead budget.
func TestHeadphoneKindMatchesHandLoop(t *testing.T) {
	const n = 6000
	x, cup := kindSignals(n)
	cfg := validConfig(n)
	cfg.Headphone = true
	tr := telemetry.NewTrace()
	cfg.Trace = tr
	pl, got := runKind(t, cfg, x, cup)
	if _, ok := pl.canc.(headphoneKind); !ok || pl.Spend != nil || pl.Budget != (core.Budget{}) || pl.NonCausalTaps != 0 {
		t.Fatalf("headphone pipeline wired canceller %T, spend %v, budget %+v, N %d", pl.canc, pl.Spend, pl.Budget, pl.NonCausalTaps)
	}
	if ev := tr.Events(); len(ev) != 0 {
		t.Errorf("headphone pipeline traced %d events, want none", len(ev))
	}

	hp, err := headphone.NewANC(cfg.SampleRate, cfg.Canceller.SecondaryPath)
	if err != nil {
		t.Fatal(err)
	}
	sec := dsp.NewStreamConvolver(cfg.SecondaryIR)
	noise := audio.NewRNG(3)
	want := make([]float64, n)
	e := 0.0
	for i := range x {
		a := hp.Step(x[i], e)
		e = cup[i] + sec.Process(a) + 1e-3*noise.Norm()
		want[i] = e
	}
	sameBits(t, got, want)
}

// TestHeadphoneKindHasNoTaps checks the Headphone kind's tap face: no
// live non-causal window, no taps to hand off, and a warm start refused.
func TestHeadphoneKindHasNoTaps(t *testing.T) {
	cfg := validConfig(256)
	cfg.Headphone = true
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.SetPressure(true)
	if got := pl.ActiveNonCausal(); got != 0 {
		t.Errorf("ActiveNonCausal = %d, want 0", got)
	}
	if w := pl.Weights(); w != nil {
		t.Errorf("Weights = %v, want nil", w)
	}
	if err := pl.SetWeights([]float64{1}); err == nil {
		t.Error("SetWeights on the Headphone kind should error")
	}
}

// TestMetersSumPowers checks Meters against the run's recordings: the
// ambient power is Σcup² over the bound under-cup field, and the residual
// power is Σresidual², which equals ΣOn² without error-mic noise.
func TestMetersSumPowers(t *testing.T) {
	const n = 1000
	x, cup := kindSignals(n)
	cfg := validConfig(n)
	on, residual := make([]float64, n), make([]float64, n)
	cfg.Reference = &SliceSource{Samples: x}
	cfg.Ambient = &SliceAmbient{Local: x, Cup: cup}
	cfg.On, cfg.Residual = on, residual
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(n, 96); err != nil {
		t.Fatal(err)
	}
	var cupPow, onPow, resPow float64
	for i := range n {
		cupPow += cup[i] * cup[i]
		onPow += on[i] * on[i]
		resPow += residual[i] * residual[i]
	}
	gotNoise, gotRes := pl.Meters()
	if gotNoise != cupPow || gotRes != resPow || gotRes != onPow {
		t.Errorf("Meters = (%v, %v), want (Σcup² %v, Σresidual² %v = ΣOn² %v)", gotNoise, gotRes, cupPow, resPow, onPow)
	}
	if resPow == 0 || resPow == cupPow {
		t.Error("the run cancelled nothing — test is vacuous")
	}
}

// TestFDAFKindMatchesHandLoop shows the FDAF kind, stepped sample by
// sample through the one pipeline loop, is exactly the block loop: each
// block's anti-noise comes from ProcessBlockInto on the zero-padded block
// of the aligned reference (delayed by the budget's align entry) and the
// previous block's noisy errors. It holds for pulls that are not whole
// blocks (rounded up), pulls of many blocks, and a short final block, and
// every block is timed into lanc.block_ns.
func TestFDAFKindMatchesHandLoop(t *testing.T) {
	const n, b = 6007, 16
	x, cup := kindSignals(n)
	cfg := validConfig(n)
	cfg.FDAF = &FDAFParams{BlockSize: b}
	cfg.MaxNonCausalTaps = 16 // leaves 44 samples for the alignment

	var nTaps, align int
	for _, pull := range []int{0, 7, 64, 100} {
		residual := make([]float64, n)
		c := cfg
		c.Reference = &SliceSource{Samples: x}
		c.Ambient = &SliceAmbient{Local: x, Cup: cup}
		c.NoiseRMS = 1e-3
		c.Noise = audio.NewRNG(3)
		c.Residual = residual
		reg := telemetry.NewRegistry()
		c.Telemetry = reg
		pl, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(n, pull); err != nil {
			t.Fatal(err)
		}
		if pl.Samples() != n {
			t.Fatalf("pull %d: processed %d samples, want %d", pull, pl.Samples(), n)
		}
		if h := reg.Snapshot().Histograms["lanc.block_ns"]; h.Count != (n+b-1)/b {
			t.Errorf("pull %d: lanc.block_ns observed %d blocks, want %d", pull, h.Count, (n+b-1)/b)
		}
		nTaps, align = pl.NonCausalTaps, pl.align
		xa := make([]float64, n)
		copy(xa[align:], x)

		bl, err := core.NewBlock(core.BlockConfig{
			FilterTaps:    cfg.Canceller.CausalTaps + nTaps,
			BlockSize:     b,
			SecondaryPath: cfg.Canceller.SecondaryPath,
			NonCausalTaps: nTaps,
		})
		if err != nil {
			t.Fatal(err)
		}
		sec := dsp.NewStreamConvolver(cfg.SecondaryIR)
		noise := audio.NewRNG(3)
		want := make([]float64, n)
		xb, a, eb := make([]float64, b), make([]float64, b), make([]float64, b)
		for t0 := 0; t0 < n; t0 += b {
			got := copy(xb, xa[t0:])
			clear(xb[got:])
			if err := bl.ProcessBlockInto(a, xb, eb); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < got; i++ {
				eb[i] = cup[t0+i] + sec.Process(a[i]) + 1e-3*noise.Norm()
				want[t0+i] = eb[i]
			}
			clear(eb[got:])
		}
		sameBits(t, residual, want)
	}
	if nTaps == 0 || align == 0 {
		t.Fatalf("the FDAF pipeline planned %d non-causal taps and align %d — test is vacuous", nTaps, align)
	}
}

// TestErrorDelayMatchesHandLoop shows an ErrorDelay pipeline is exactly a
// core.LANC (with the same ErrorDelay) whose fed-back error passes
// through a delay line — the Tabletop variant's uplink leg.
func TestErrorDelayMatchesHandLoop(t *testing.T) {
	const n, delay = 6000, 3
	x, cup := kindSignals(n)
	cfg := validConfig(n)
	cfg.ErrorDelay = delay
	pl, got := runKind(t, cfg, x, cup)

	c := cfg.Canceller
	lanc, err := core.New(core.Config{
		NonCausalTaps: pl.NonCausalTaps,
		CausalTaps:    c.CausalTaps,
		Mu:            c.Mu,
		Normalized:    true,
		Leak:          Leak,
		SecondaryPath: c.SecondaryPath,
		ErrorDelay:    delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := dsp.NewDelayLine(delay)
	if err != nil {
		t.Fatal(err)
	}
	sec := dsp.NewStreamConvolver(cfg.SecondaryIR)
	noise := audio.NewRNG(3)
	want := make([]float64, n)
	e := 0.0
	for i := range x {
		a := lanc.Step(x[i], dl.Process(e))
		e = cup[i] + sec.Process(a) + 1e-3*noise.Norm()
		want[i] = e
	}
	sameBits(t, got, want)

	// The delay is not a no-op: the undelayed pipeline differs.
	cfg.ErrorDelay = 0
	_, undelayed := runKind(t, cfg, x, cup)
	same := true
	for i := range got {
		if got[i] != undelayed[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("ErrorDelay changed nothing")
	}
}
