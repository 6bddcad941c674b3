package core

import (
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
)

// runANC simulates the acoustic loop of Figure 4 driven by the given noise
// generator: x = h_nr * n at the reference mic, primary d = h_ne * n at the
// error mic, anti-noise through the true h_se. It returns the cancellation
// in dB over the final quarter (negative is better).
func runANC(t *testing.T, l *LANC, gen audio.Generator, hnr, hne, hse []float64, n int) float64 {
	t.Helper()
	N := l.cfg.NonCausalTaps
	refCh := dsp.NewStreamConvolver(hnr)
	priCh := dsp.NewStreamConvolver(hne)
	secCh := dsp.NewStreamConvolver(hse)
	// Pre-generate the noise so the reference path can run N samples
	// ahead of the acoustic path, exactly as the wireless relay does.
	noise := audio.Render(gen, n+N+1)
	ref := refCh.ProcessBlock(noise)
	var resPow, priPow float64
	e := 0.0
	for tt := 0; tt < n; tt++ {
		l.Adapt(e)
		l.Push(ref[tt+N])
		a := l.AntiNoise()
		d := priCh.Process(noise[tt])
		e = d + secCh.Process(a)
		if tt >= 3*n/4 {
			resPow += e * e
			priPow += d * d
		}
	}
	if priPow == 0 {
		return 0
	}
	return 10 * math.Log10(resPow/priPow)
}

// Channels used across tests: h_nr is deliberately non-minimum-phase
// (|zero| > 1) so its inverse is non-causal — the condition that makes
// lookahead valuable. h_ne arrives later than h_nr (the ear is farther).
var (
	testHnr = []float64{0.5, 1.0}
	testHne = []float64{0, 0, 0, 0, 1.0, 0.35, 0.1}
	testHse = []float64{0.8, 0.25, 0.05}
)

func newTestLANC(t *testing.T, nonCausal int, opts ...func(*Config)) *LANC {
	t.Helper()
	cfg := Config{
		NonCausalTaps: nonCausal,
		CausalTaps:    24,
		Mu:            0.5,
		Normalized:    true,
		SecondaryPath: testHse,
	}
	for _, o := range opts {
		o(&cfg)
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLANCCancelsWhiteNoise(t *testing.T) {
	l := newTestLANC(t, 16)
	gen := audio.NewWhiteNoise(1, 8000, 0.5)
	db := runANC(t, l, gen, testHnr, testHne, testHse, 60000)
	if db > -15 {
		t.Errorf("LANC white-noise cancellation = %.1f dB, want < -15 dB", db)
	}
}

func TestLookaheadImprovesCancellation(t *testing.T) {
	// The paper's central claim (Figure 16): more non-causal taps (more
	// lookahead) yield deeper cancellation of unpredictable noise.
	results := map[int]float64{}
	for _, N := range []int{0, 4, 16} {
		l := newTestLANC(t, N)
		gen := audio.NewWhiteNoise(1, 8000, 0.5)
		results[N] = runANC(t, l, gen, testHnr, testHne, testHse, 60000)
	}
	if !(results[16] < results[4] && results[4] < results[0]) {
		t.Errorf("cancellation should improve with lookahead: %v", results)
	}
	if results[16] > results[0]-5 {
		t.Errorf("16-tap lookahead should beat none by > 5 dB: %v", results)
	}
}

func TestLANCCausalOnlyStillCancelsTone(t *testing.T) {
	// Periodic signals are predictable: even without lookahead the
	// adaptive filter cancels them (why conventional ANC handles hum).
	l := newTestLANC(t, 0)
	gen := audio.NewTone(250, 8000, 0.5, 0)
	db := runANC(t, l, gen, testHnr, testHne, testHse, 40000)
	if db > -20 {
		t.Errorf("causal LANC tone cancellation = %.1f dB, want < -20 dB", db)
	}
}

func TestLANCConfigValidation(t *testing.T) {
	bad := []Config{
		{NonCausalTaps: -1, CausalTaps: 8, Mu: 0.1, SecondaryPath: []float64{1}},
		{NonCausalTaps: 8, CausalTaps: -1, Mu: 0.1, SecondaryPath: []float64{1}},
		{NonCausalTaps: 0, CausalTaps: 0, Mu: 0.1, SecondaryPath: []float64{1}},
		{NonCausalTaps: 8, CausalTaps: 8, Mu: 0, SecondaryPath: []float64{1}},
		{NonCausalTaps: 8, CausalTaps: 8, Mu: 0.1, SecondaryPath: nil},
		{NonCausalTaps: 8, CausalTaps: 8, Mu: 0.1, Leak: 1, SecondaryPath: []float64{1}},
		{NonCausalTaps: 8, CausalTaps: 8, Mu: 0.1, SecondaryPath: []float64{1}, Profiling: true},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestLANCProfilingDefaults(t *testing.T) {
	cfg := Config{
		NonCausalTaps: 4, CausalTaps: 8, Mu: 0.1,
		SecondaryPath: []float64{1},
		Profiling:     true, SampleRate: 8000,
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.currentID != 0 {
		t.Error("initial profile should be silence (0)")
	}
	c := l.cfg
	if c.ProfileWindow != 1024 || c.ProfileHop != 256 || c.ProfileThreshold != 0.45 || c.MaxProfiles != 4 {
		t.Errorf("profiler defaults = %d/%d/%g/%d, want 1024/256/0.45/4",
			c.ProfileWindow, c.ProfileHop, c.ProfileThreshold, c.MaxProfiles)
	}
}

func TestLANCProfileSwitchDetected(t *testing.T) {
	cfg := Config{
		NonCausalTaps: 8, CausalTaps: 16, Mu: 0.4, Normalized: true,
		SecondaryPath: testHse,
		Profiling:     true, SampleRate: 8000,
		ProfileWindow: 256, ProfileHop: 64, ProfileThreshold: 0.25, MaxProfiles: 8,
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate a low tone and wide-band noise with a silent gap; the
	// profiler should register multiple distinct profiles and switch.
	tone := audio.NewTone(300, 8000, 0.5, 0)
	noise := audio.NewWhiteNoise(2, 8000, 0.5)
	var stream []float64
	for rep := 0; rep < 4; rep++ {
		stream = append(stream, audio.Render(tone, 4000)...)
		stream = append(stream, make([]float64, 2000)...) // silence
		stream = append(stream, audio.Render(noise, 4000)...)
		stream = append(stream, make([]float64, 2000)...)
	}
	e := 0.0
	for _, x := range stream {
		l.Adapt(e)
		l.Push(x)
		e = 0.1 * l.AntiNoise() // dummy loop; we only test the profiler here
	}
	if l.Switches() < 4 {
		t.Errorf("profiler performed %d switches, want >= 4", l.Switches())
	}
}

func TestLANCSetWeightsRoundTrip(t *testing.T) {
	l := newTestLANC(t, 4)
	w := l.Weights()
	for i := range w {
		w[i] = float64(i) * 0.01
	}
	if err := l.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	got := l.Weights()
	for i := range w {
		if got[i] != w[i] {
			t.Fatal("weights round trip failed")
		}
	}
	if err := l.SetWeights([]float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestLANCReset(t *testing.T) {
	l := newTestLANC(t, 4)
	gen := audio.NewWhiteNoise(3, 8000, 0.5)
	runANC(t, l, gen, testHnr, testHne, testHse, 2000)
	l.Reset()
	for _, w := range l.Weights() {
		if w != 0 {
			t.Fatal("reset should zero weights")
		}
	}
	if l.AntiNoise() != 0 {
		t.Error("reset LANC should output 0")
	}
}

func TestLANCStepWrapper(t *testing.T) {
	l := newTestLANC(t, 2)
	// Step should not panic and should eventually produce output.
	var out float64
	for i := 0; i < 100; i++ {
		out = l.Step(0.5, 0.1)
	}
	if math.IsNaN(out) {
		t.Error("Step produced NaN")
	}
	if l.cfg.NonCausalTaps != 2 || l.cfg.CausalTaps != 24 {
		t.Error("tap counts mismatch")
	}
}

func TestBudget(t *testing.T) {
	p := DefaultPipeline()
	if p.Total() != 4 {
		t.Fatalf("default pipeline total = %d, want 4", p.Total())
	}
	b, err := NewBudget(24, p)
	if err != nil {
		t.Fatal(err)
	}
	if !b.DeadlineMet || b.UsableTaps != 20 || b.LateSamples != 0 {
		t.Errorf("budget = %+v", b)
	}
	// Conventional headphone: essentially zero lookahead.
	b2, err := NewBudget(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if b2.DeadlineMet || b2.LateSamples != 4 || b2.UsableTaps != 0 {
		t.Errorf("no-lookahead budget = %+v", b2)
	}
	if _, err := NewBudget(10, PipelineDelays{ADC: -1}); err == nil {
		t.Error("negative pipeline delay should error")
	}
}

func BenchmarkLANCStep(b *testing.B) {
	cfg := Config{
		NonCausalTaps: 24, CausalTaps: 64, Mu: 0.2, Normalized: true,
		SecondaryPath: testHse,
	}
	l, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(0.3, 0.05)
	}
}

// BenchmarkLANCStepFleetShape times the step at the served fleet's shape
// (fleet.DefaultProfile through graph.Build): 16 non-causal and 8 causal
// taps, NLMS with graph.Leak, loss awareness on, the demo ear's secondary
// path, and a noise reference rather than a constant one.
func BenchmarkLANCStepFleetShape(b *testing.B) {
	l, err := New(Config{
		NonCausalTaps: 16, CausalTaps: EarCausalTaps, Mu: 0.1, Normalized: true,
		Leak: 0.0005, LossAware: true, SecondaryPath: EarSecondaryPath(),
	})
	if err != nil {
		b.Fatal(err)
	}
	x := audio.Render(audio.NewWhiteNoise(8, 8000, 0.5), 4096)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = l.StepMasked(x[i&4095], 0.01*x[(i+7)&4095], true)
	}
	benchSink = sink
}

var benchSink float64

func TestLANCErrorDelayValidation(t *testing.T) {
	cfg := Config{
		NonCausalTaps: 4, CausalTaps: 8, Mu: 0.1,
		SecondaryPath: []float64{1}, ErrorDelay: -1,
	}
	if _, err := New(cfg); err == nil {
		t.Error("negative error delay should be rejected")
	}
}

func TestLANCErrorDelayStillCancels(t *testing.T) {
	// With the error arriving late but correctly paired, cancellation
	// should remain within a few dB of the co-located case.
	run := func(delay int) float64 {
		cfg := Config{
			NonCausalTaps: 8, CausalTaps: 24, Mu: 0.3, Normalized: true,
			SecondaryPath: testHse, ErrorDelay: delay,
		}
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := audio.NewWhiteNoise(9, 8000, 0.5)
		refCh := dsp.NewStreamConvolver(testHnr)
		priCh := dsp.NewStreamConvolver(testHne)
		secCh := dsp.NewStreamConvolver(testHse)
		fifo, err := dsp.NewDelayLine(delay)
		if err != nil {
			t.Fatal(err)
		}
		const n = 40000
		noise := audio.Render(gen, n+9)
		ref := refCh.ProcessBlock(noise)
		var resPow, priPow float64
		e := 0.0
		for tt := 0; tt < n; tt++ {
			l.Adapt(fifo.Process(e))
			l.Push(ref[tt+8])
			a := l.AntiNoise()
			d := priCh.Process(noise[tt])
			e = d + secCh.Process(a)
			if tt >= 3*n/4 {
				resPow += e * e
				priPow += d * d
			}
		}
		return 10 * math.Log10(resPow/priPow)
	}
	colocated := run(0)
	delayed := run(6)
	if delayed > -10 {
		t.Errorf("delayed-error LANC cancellation = %.1f dB, want < -10", delayed)
	}
	if delayed > colocated+6 {
		t.Errorf("delayed-error run (%.1f dB) should stay within 6 dB of co-located (%.1f dB)", delayed, colocated)
	}
}
