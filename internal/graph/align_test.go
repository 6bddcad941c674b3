package graph

import (
	"errors"
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
)

// alignedConfig is a pipeline whose lookahead is mostly left over after
// the pipeline delays and a 16-tap non-causal cap, so the reference
// alignment is large (64 − 4 − 16 = 44 samples). The secondary chain
// carries the pipeline's 4 samples of latency, as the simulator's does.
func alignedConfig(x, cup []float64) Config {
	sec := []float64{0, 0, 0, 0, 1}
	return Config{
		SampleRate:       8000,
		Lookahead:        64,
		Pipeline:         core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1},
		MaxNonCausalTaps: 16,
		Canceller: CancellerParams{
			CausalTaps:    core.EarCausalTaps,
			Mu:            0.1,
			SecondaryPath: sec,
		},
		Reference:   &SliceSource{Samples: x},
		Ambient:     &SliceAmbient{Local: cup, Cup: cup},
		SecondaryIR: sec,
	}
}

// TestAlignmentLeavesNoDelay pins the point of the alignment stage: on a
// noiseless pure-delay channel (the wavefront is the reference, Lookahead
// samples later), the converged taps of both canceller kinds peak at the
// tap the plan predicts — the first causal tap, index N — so no tap is
// spent modelling delay.
func TestAlignmentLeavesNoDelay(t *testing.T) {
	const n, lookahead = 16000, 64
	rng := audio.NewRNG(5)
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 * rng.Norm()
	}
	cup := make([]float64, n)
	copy(cup[lookahead:], x)
	for _, tc := range []struct {
		name string
		fdaf *FDAFParams
	}{
		{"td", nil},
		{"fdaf16", &FDAFParams{BlockSize: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := alignedConfig(x, cup)
			cfg.FDAF = tc.fdaf
			residual := make([]float64, n)
			cfg.Residual = residual
			pl, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pl.align != 44 {
				t.Fatalf("align = %d samples, want 44", pl.align)
			}
			// The plan's prediction: the wavefront lags the aligned
			// reference by Lookahead − align samples, of which the
			// secondary chain carries the pipeline's share.
			want := cfg.Lookahead - pl.align - cfg.Pipeline.Total()
			if want != pl.NonCausalTaps {
				t.Fatalf("plan predicts the peak at tap %d, N = %d", want, pl.NonCausalTaps)
			}
			if err := pl.Run(n, 0); err != nil {
				t.Fatal(err)
			}
			w := pl.Weights()
			peak := 0
			for i, v := range w {
				if math.Abs(v) > math.Abs(w[peak]) {
					peak = i
				}
			}
			if peak != want || math.Abs(w[peak]+1) > 0.05 {
				t.Errorf("weights peak at tap %d (%.3f), want tap %d at −1: %d samples of delay left for the taps",
					peak, w[peak], want, peak-want)
			}
			if db := dsp.DB(dsp.Power(residual[n-2000:]) / dsp.Power(cup[n-2000:])); db > -30 {
				t.Errorf("aligned %s cancels %.1f dB on a pure delay, want below −30 dB", tc.name, db)
			}
		})
	}
}

// stepFrozen steps the pipeline one sample at a time and returns, per
// canceller-clock sample, whether the LANC's freeze guard was armed after
// that sample.
func stepFrozen(t *testing.T, pl *Pipeline, n int) []bool {
	t.Helper()
	frozen := make([]bool, n)
	for i := range frozen {
		if _, err := pl.ProcessBlock(1); err != nil {
			t.Fatal(err)
		}
		_, frozen[i], _ = pl.banks[0].LossState()
	}
	return frozen
}

// firstTrue returns the index of the first true flag (−1 if none).
func firstTrue(flags []bool) int {
	for i, f := range flags {
		if f {
			return i
		}
	}
	return -1
}

// TestAlignmentCarriesMask shows a concealed sample's flag travels with it
// through the alignment: the loss-aware freeze fires when the concealed
// zero reaches the canceller, align samples after it was pulled.
func TestAlignmentCarriesMask(t *testing.T) {
	const n, lost = 400, 100
	x, cup := kindSignals(n)
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = i != lost
	}
	x[lost] = 0
	cfg := alignedConfig(x, cup)
	cfg.Reference = &maskedSource{SliceSource: SliceSource{Samples: x}, mask: mask}
	cfg.Canceller.LossAware = true
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := firstTrue(stepFrozen(t, pl, n)); got != lost+pl.align {
		t.Errorf("loss-aware freeze fired at sample %d, want %d (pulled at %d, aligned by %d)",
			got, lost+pl.align, lost, pl.align)
	}
}

// TestAlignmentShiftsDriftHolds shows a drift hold, scheduled at the
// pulled index of the samples it protects, lands when those samples reach
// the canceller.
func TestAlignmentShiftsDriftHolds(t *testing.T) {
	const n, at = 400, 120
	x, cup := kindSignals(n)
	cfg := alignedConfig(x, cup)
	cfg.Drift = holdAt{at: at, hold: 30}
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := firstTrue(stepFrozen(t, pl, n)); got != at+pl.align {
		t.Errorf("drift hold landed at sample %d, want %d (scheduled at %d, aligned by %d)",
			got, at+pl.align, at, pl.align)
	}
}

// maskedSource serves a slice with a concealment mask.
type maskedSource struct {
	SliceSource
	mask []bool
}

func (s *maskedSource) Pull(dst []float64, mask []bool, start int64) int {
	at := s.pos
	n := s.SliceSource.Pull(dst, mask, start)
	copy(mask[:n], s.mask[at:at+n])
	return n
}

// holdAt is a drift control that holds adaptation for hold samples when
// pulled sample at reaches the canceller.
type holdAt struct {
	at   int64
	hold int
}

func (h holdAt) Tick(t int64, c Controls) {
	if t == h.at {
		c.Hold(h.hold, 0)
	}
}

// FuzzGraphConfig builds random configurations, with up to two further
// references: Build either refuses one with ErrUnsupported or returns a
// pipeline whose budget sums to the lookahead, books a non-negative align
// entry and no unused entry, and runs to a finite residual.
func FuzzGraphConfig(f *testing.F) {
	f.Add(uint8(64), uint8(0), uint8(0), uint8(0), uint8(4), uint8(16), uint8(8), uint8(0), uint8(0), false, false)
	f.Add(uint8(70), uint8(40), uint8(3), uint8(2), uint8(4), uint8(32), uint8(160), uint8(5), uint8(1), true, true)
	f.Add(uint8(10), uint8(0), uint8(0), uint8(0), uint8(40), uint8(0), uint8(1), uint8(4), uint8(2), false, false)
	f.Add(uint8(90), uint8(8), uint8(2), uint8(0), uint8(9), uint8(12), uint8(24), uint8(0), uint8(2), false, false)
	f.Fuzz(func(t *testing.T, lookahead, prime, extra, guard, pipe, maxNC, causal, fdafLog, more uint8, supervise, lossAware bool) {
		const n = 300
		x, cup := kindSignals(n)
		residual := make([]float64, n)
		cfg := Config{
			SampleRate:          8000,
			Lookahead:           int(lookahead),
			PrimeSamples:        int(prime),
			ExtraReferenceDelay: int(extra),
			DriftGuard:          int(guard % 3),
			Pipeline:            core.PipelineDelays{ADC: int(pipe % 8), DSP: int(pipe / 8 % 4), DAC: 1, Speaker: 1},
			MaxNonCausalTaps:    int(maxNC),
			Canceller: CancellerParams{
				CausalTaps:    int(causal) + 1, // at least one tap: a tapless filter is a malformed binding
				Mu:            0.1,
				SecondaryPath: []float64{0.85, 0.22, 0.06},
				LossAware:     lossAware,
			},
			Supervise:   supervise,
			Reference:   &SliceSource{Samples: x},
			Ambient:     &SliceAmbient{Local: cup, Cup: cup},
			SecondaryIR: []float64{0, 0.85, 0.22, 0.06},
			Residual:    residual,
			TraceBlock:  int(causal%64) + 1,
		}
		for r := range int(more % 3) {
			cfg.ExtraReferences = append(cfg.ExtraReferences, &SliceSource{Samples: cup[r:]})
		}
		if fdafLog%8 != 0 {
			cfg.FDAF = &FDAFParams{BlockSize: 1 << (fdafLog % 8)}
		}
		pl, err := Build(cfg)
		if err != nil {
			if !errors.Is(err, ErrUnsupported) {
				t.Fatalf("Build refused a well-formed config without ErrUnsupported: %v", err)
			}
			return
		}
		if got := pl.Spend.SpentSamples(); got != cfg.Lookahead {
			t.Fatalf("budget entries sum to %d, lookahead %d", got, cfg.Lookahead)
		}
		aligns := 0
		for _, e := range pl.Spend.Entries {
			switch e.Stage {
			case "unused":
				t.Fatalf("budget books %d unused samples", e.Samples)
			case "align":
				aligns++
				if e.Samples < 0 || e.Samples != pl.align {
					t.Fatalf("align entry %d samples, pipeline aligns by %d", e.Samples, pl.align)
				}
			}
		}
		if aligns != 1 {
			t.Fatalf("budget books %d align entries, want 1", aligns)
		}
		if err := pl.Run(n, int(maxNC%100)+1); err != nil {
			t.Fatal(err)
		}
		if pl.Samples() != n {
			t.Fatalf("processed %d samples, want %d", pl.Samples(), n)
		}
		for i, e := range residual {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("residual[%d] = %v", i, e)
			}
		}
	})
}
