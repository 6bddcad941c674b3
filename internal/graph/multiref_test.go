package graph

import (
	"errors"
	"math"
	"slices"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
	"mute/internal/telemetry"
)

// TestMultiReferenceSilentBankIsSingleAtHalfMu shows the multi-reference
// kind is the one LANC per reference it claims to be. A silent bank's
// filtered-x is zero, so its taps stay zero and add nothing: a pipeline
// with a silent further reference is bit for bit the single-reference
// pipeline at Mu/2, with the error fed back at once or late. Swapping the
// references gives the same bits, so a further reference is pulled and
// aligned exactly like Reference.
func TestMultiReferenceSilentBankIsSingleAtHalfMu(t *testing.T) {
	const n = 6000
	x, cup := kindSignals(n)
	silence := make([]float64, n)
	for _, errDelay := range []int{0, 3} {
		cfg := validConfig(n)
		cfg.MaxNonCausalTaps = 8
		cfg.ErrorDelay = errDelay
		half := cfg
		half.Canceller.Mu /= 2
		single, want := runKind(t, half, x, cup)
		if single.align == 0 {
			t.Fatal("the pipeline plans no alignment — test is vacuous")
		}

		cfg.ExtraReferences = []SampleSource{&SliceSource{Samples: silence}}
		pl, got := runKind(t, cfg, x, cup)
		if _, ok := pl.canc.(*multiKind); !ok {
			t.Fatalf("wired canceller %T, want *multiKind", pl.canc)
		}
		sameBits(t, got, want)
		w := pl.Weights()
		per := len(single.Weights())
		if len(w) != 2*per || !slices.Equal(w[:per], single.Weights()) || slices.ContainsFunc(w[per:], func(v float64) bool { return v != 0 }) {
			t.Fatalf("errDelay %d: banks hold %d taps, want the single taps then %d zeros", errDelay, len(w), per)
		}

		// Swapped: the signal rides the further reference.
		swapped := cfg
		swapped.ExtraReferences = []SampleSource{&SliceSource{Samples: x}}
		residual := make([]float64, n)
		swapped.Reference = &SliceSource{Samples: silence}
		swapped.Ambient = &SliceAmbient{Local: x, Cup: cup}
		swapped.NoiseRMS, swapped.Noise, swapped.Residual = 1e-3, audio.NewRNG(3), residual
		sw, err := Build(swapped)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Run(n, 64); err != nil {
			t.Fatal(err)
		}
		sameBits(t, residual, want)
	}
}

// TestMultiReferenceCancelsTwoSources drives two independent noise
// processes through their own channels. One reference hearing the mixture
// cannot cancel it; one bank per source, each adapting on the shared
// error as a lone LANC on its reference would, can.
func TestMultiReferenceCancelsTwoSources(t *testing.T) {
	const n, lead = 50000, 8
	hse := []float64{0.8, 0.25, 0.05}
	nsA := audio.Render(audio.NewWhiteNoise(1, 8000, 0.5), n+lead)
	nsB := audio.Render(audio.NewWhiteNoise(2, 8000, 0.5), n+lead)
	refA := dsp.NewStreamConvolver([]float64{1.0, 0.3}).ProcessBlock(nsA[lead:])
	refB := dsp.NewStreamConvolver([]float64{0.7, -0.4}).ProcessBlock(nsB[lead:])
	cup := dsp.NewStreamConvolver([]float64{0, 0, 0, 0, 0.8, 0.2}).ProcessBlock(nsA[:n])
	for i, v := range dsp.NewStreamConvolver([]float64{0, 0, 0, 0, -0.5, 0.6}).ProcessBlock(nsB[:n]) {
		cup[i] += v
	}
	run := func(refs ...[]float64) float64 {
		residual := make([]float64, n)
		cfg := Config{
			SampleRate:  8000,
			Lookahead:   lead,
			Canceller:   CancellerParams{CausalTaps: 16, Mu: 0.3, SecondaryPath: hse},
			Reference:   &SliceSource{Samples: refs[0]},
			Ambient:     &SliceAmbient{Local: cup, Cup: cup},
			SecondaryIR: hse,
			Residual:    residual,
		}
		for _, r := range refs[1:] {
			cfg.ExtraReferences = append(cfg.ExtraReferences, &SliceSource{Samples: r})
		}
		pl, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pl.NonCausalTaps != lead {
			t.Fatalf("planned %d non-causal taps, want %d", pl.NonCausalTaps, lead)
		}
		if err := pl.Run(n, 0); err != nil {
			t.Fatal(err)
		}
		var resPow, priPow float64
		for i := 3 * n / 4; i < n; i++ {
			resPow += residual[i] * residual[i]
			priPow += cup[i] * cup[i]
		}
		return 10 * math.Log10(resPow/priPow)
	}
	mix := slices.Clone(refA)
	for i, v := range refB {
		mix[i] += v
	}
	single, multi := run(mix), run(refA, refB)
	if multi >= single-5 {
		t.Errorf("two-bank cancellation (%.1f dB) should beat single (%.1f dB) by > 5 dB", multi, single)
	}
	if multi > -15 {
		t.Errorf("two-bank cancellation = %.1f dB, want < -15", multi)
	}
}

// TestMultiReferenceShapes checks the kind's shape handling: a nil
// further reference is refused at Build, the live window shrinks on every
// bank, and a further reference that runs short reads as silence.
func TestMultiReferenceShapes(t *testing.T) {
	const n = 512
	cfg := validConfig(n)
	cfg.MaxNonCausalTaps = 8
	cfg.ExtraReferences = []SampleSource{nil}
	if _, err := Build(cfg); err == nil || errors.Is(err, ErrUnsupported) {
		t.Errorf("nil extra reference: Build returned %v, want a binding error", err)
	}

	x, cup := kindSignals(n)
	cfg.ExtraReferences = []SampleSource{&SliceSource{Samples: x}, &SliceSource{Samples: x[:n/2]}}
	pl, _ := runKind(t, cfg, x, cup)
	k := pl.canc.(*multiKind)
	pl.SetPressure(true) // the DEGRADED window: 4 of the 8 planned taps
	for i, b := range k.banks {
		if b.ActiveNonCausal() != 4 {
			t.Errorf("bank %d keeps %d live non-causal taps, want 4", i, b.ActiveNonCausal())
		}
	}
	if pl.ActiveNonCausal() != 4 {
		t.Errorf("pipeline reports %d live non-causal taps, want 4", pl.ActiveNonCausal())
	}
	// The short reference's bank heard silence after its stream ended: its
	// last pulled block is zero past the end.
	if tail := k.more[1].x[:pl.align]; slices.ContainsFunc(tail, func(v float64) bool { return v != 0 }) {
		t.Errorf("the short reference's scratch holds %v after its end, want silence", tail)
	}
}

// TestMultiReferenceArity checks the kind holds one bank per reference:
// Reference plus each further reference, with one pull scratch per
// further reference, and its taps travel bank after bank, so SetWeights
// takes exactly one window per bank.
func TestMultiReferenceArity(t *testing.T) {
	const n = 512
	x, cup := kindSignals(n)
	for extra := 1; extra <= 2; extra++ {
		cfg := validConfig(n)
		cfg.MaxNonCausalTaps = 8
		for range extra {
			cfg.ExtraReferences = append(cfg.ExtraReferences, &SliceSource{Samples: x})
		}
		pl, _ := runKind(t, cfg, x, cup)
		k := pl.canc.(*multiKind)
		banks := extra + 1
		if len(k.banks) != banks || len(k.more) != extra {
			t.Fatalf("%d further references: %d banks and %d pull scratches, want %d and %d",
				extra, len(k.banks), len(k.more), banks, extra)
		}
		w := pl.Weights()
		per := pl.NonCausalTaps + cfg.Canceller.CausalTaps + 1
		if len(w) != banks*per {
			t.Fatalf("%d banks hold %d taps, want %d", banks, len(w), banks*per)
		}
		for _, bad := range [][]float64{nil, w[:per], w[:len(w)-1], append(slices.Clone(w), w[:per]...)} {
			if err := pl.SetWeights(bad); err == nil {
				t.Errorf("SetWeights accepted %d taps for %d banks of %d", len(bad), banks, per)
			}
		}
		if err := pl.SetWeights(w); err != nil || !slices.Equal(pl.Weights(), w) {
			t.Fatalf("SetWeights round trip at %d banks: %v", banks, err)
		}
	}
}

// TestMultiReferenceAdaptStateSumsBanks: on the multi-reference kind
// AdaptState and the lanc.tap_energy gauge report the banks' summed tap
// energy, and the trace carries one step event per bank.
func TestMultiReferenceAdaptStateSumsBanks(t *testing.T) {
	const n = 2048
	x, cup := kindSignals(n)
	y, _ := kindSignals(2 * n)
	cfg := validConfig(n)
	cfg.MaxNonCausalTaps = 8
	cfg.ExtraReferences = []SampleSource{&SliceSource{Samples: y[n:]}}
	cfg.LiveHooks = true
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Trace = telemetry.NewTrace()
	pl, _ := runKind(t, cfg, x, cup)
	k, ok := pl.canc.(*multiKind)
	if !ok {
		t.Fatalf("wired canceller %T, want *multiKind", pl.canc)
	}
	var sum float64
	for _, b := range k.banks {
		if b.TapEnergy() == 0 {
			t.Fatal("a bank never adapted — test is vacuous")
		}
		sum += b.TapEnergy()
	}
	if _, e, _ := pl.AdaptState(); e != sum {
		t.Errorf("AdaptState tap energy %v, want the banks' sum %v", e, sum)
	}
	if g := cfg.Telemetry.Snapshot().Gauges["lanc.tap_energy"]; g != sum {
		t.Errorf("lanc.tap_energy gauge %v, want the banks' sum %v", g, sum)
	}
	steps := map[float64]int{}
	for _, ev := range cfg.Trace.Events() {
		if ev.Stage == telemetry.StageLANC && ev.Name == "step" {
			steps[ev.Values["bank"]]++
		}
	}
	if len(steps) != 2 || steps[0] == 0 || steps[0] != steps[1] {
		t.Errorf("step events per bank %v, want as many for bank 0 as for bank 1", steps)
	}
}
