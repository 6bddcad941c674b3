package core

import (
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
)

func multiCfg(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			NonCausalTaps: 8, CausalTaps: 16, Mu: 0.3 / float64(n), Normalized: true,
			SecondaryPath: testHse,
		}
	}
	return cfgs
}

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti(nil); err == nil {
		t.Error("empty config list should error")
	}
	bad := multiCfg(2)
	bad[1].Mu = 0
	if _, err := NewMulti(bad); err == nil {
		t.Error("invalid bank config should error")
	}
	m, err := NewMulti(multiCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.banks) != 3 {
		t.Errorf("references = %d, want 3", len(m.banks))
	}
}

func TestMultiPushArity(t *testing.T) {
	m, err := NewMulti(multiCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Push([]float64{1}); err == nil {
		t.Error("wrong arity should error")
	}
	if err := m.Push([]float64{1, 2}); err != nil {
		t.Errorf("correct arity should succeed: %v", err)
	}
}

func TestMultiCancelsTwoIndependentSources(t *testing.T) {
	// Two independent noise processes, each with its own channels; a
	// single-reference filter cannot cancel the mixture, two banks can.
	hnrA := []float64{1.0, 0.3}
	hneA := []float64{0, 0, 0, 0, 0.8, 0.2}
	hnrB := []float64{0.7, -0.4}
	hneB := []float64{0, 0, 0, 0, -0.5, 0.6}
	run := func(multi bool) float64 {
		const N = 8
		genA := audio.NewWhiteNoise(1, 8000, 0.5)
		genB := audio.NewWhiteNoise(2, 8000, 0.5)
		const n = 50000
		nsA := audio.Render(genA, n+N+1)
		nsB := audio.Render(genB, n+N+1)
		refA := dsp.NewStreamConvolver(hnrA)
		refB := dsp.NewStreamConvolver(hnrB)
		earA := dsp.NewStreamConvolver(hneA)
		earB := dsp.NewStreamConvolver(hneB)
		sec := dsp.NewStreamConvolver(testHse)
		var banks int
		if multi {
			banks = 2
		} else {
			banks = 1
		}
		m, err := NewMulti(multiCfg(banks))
		if err != nil {
			t.Fatal(err)
		}
		var resPow, priPow float64
		e := 0.0
		for tt := 0; tt < n; tt++ {
			m.Adapt(e)
			ra := refA.Process(nsA[tt+N])
			rb := refB.Process(nsB[tt+N])
			if multi {
				if err := m.Push([]float64{ra, rb}); err != nil {
					t.Fatal(err)
				}
			} else {
				// Single reference hears the mixture.
				if err := m.Push([]float64{ra + rb}); err != nil {
					t.Fatal(err)
				}
			}
			a := m.AntiNoise()
			d := earA.Process(nsA[tt]) + earB.Process(nsB[tt])
			e = d + sec.Process(a)
			if tt >= 3*n/4 {
				resPow += e * e
				priPow += d * d
			}
		}
		return 10 * math.Log10(resPow/priPow)
	}
	single := run(false)
	multi := run(true)
	if multi >= single-5 {
		t.Errorf("two-bank cancellation (%.1f dB) should beat single (%.1f dB) by > 5 dB", multi, single)
	}
	if multi > -15 {
		t.Errorf("two-bank cancellation = %.1f dB, want < -15", multi)
	}
}
