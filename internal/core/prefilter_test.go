package core

import (
	"math"
	"testing"

	"mute/internal/audio"
)

// TestPrefilterMatchesPerSample drives two identical cancellers over one
// stream, one announcing each block through Prefilter and one filtering
// sample by sample, and requires bit-identical anti-noise and weights.
// The stream covers loss-aware concealment masks, LimitNonCausal,
// HoldAdaptation, profile swaps, the supervisor's push-only rung
// (PushMasked + AntiNoise), blocks announced in two parts, and a Reset
// in the middle of an announced block.
func TestPrefilterMatchesPerSample(t *testing.T) {
	sec := make([]float64, 11)
	rnd := audio.NewRNG(3)
	for i := range sec {
		sec[i] = rnd.Norm() / float64(i+1)
	}
	cfg := Config{
		NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true, Leak: 0.0005,
		SecondaryPath: sec,
		LossAware:     true,
		Profiling:     true, SampleRate: 8000,
		ProfileWindow: 256, ProfileHop: 64, ProfileThreshold: 0.4, MaxProfiles: 4,
	}
	pre, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate hum and white noise so profiles switch.
	hum := audio.NewMachineHum(5, 150, 8000, 0.6, 6)
	white := audio.NewWhiteNoise(6, 8000, 0.5)
	const seg, total = 2000, 12000
	xs := make([]float64, total)
	for i := range xs {
		if (i/seg)%2 == 0 {
			xs[i] = hum.Next()
		} else {
			xs[i] = white.Next()
		}
	}
	real := func(i int) bool { return i%97 >= 5 || (i/97)%13 != 0 }
	errRng := audio.NewRNG(77)
	blocks := []int{37, 80, 1, 512, 7}
	for i, b := 0, 0; i < total; b++ {
		n := min(blocks[b%len(blocks)], total-i)
		if b%3 == 2 && n > 1 {
			pre.Prefilter(xs[i : i+n/2])
			pre.Prefilter(xs[i+n/2 : i+n])
		} else {
			pre.Prefilter(xs[i : i+n])
		}
		for end := i + n; i < end; i++ {
			switch i % 1500 {
			case 700:
				pre.LimitNonCausal(8)
				ref.LimitNonCausal(8)
			case 1100:
				pre.LimitNonCausal(16)
				ref.LimitNonCausal(16)
			}
			if i%2500 == 1234 {
				pre.HoldAdaptation(100, 0)
				ref.HoldAdaptation(100, 0)
			}
			if i == 7777 {
				pre.Reset()
				ref.Reset()
			}
			e := 0.3 * errRng.Norm()
			var got, want float64
			if (i/1000)%5 == 3 {
				pre.PushMasked(xs[i], real(i))
				ref.PushMasked(xs[i], real(i))
				got, want = pre.AntiNoise(), ref.AntiNoise()
			} else {
				got = pre.StepMasked(xs[i], e, real(i))
				want = ref.StepMasked(xs[i], e, real(i))
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sample %d: prefiltered %0.17g != per-sample %0.17g", i, got, want)
			}
		}
	}
	if ref.Switches() == 0 {
		t.Fatal("profiling never switched; test exercised nothing")
	}
	gw, ww := pre.Weights(), ref.Weights()
	for i := range ww {
		if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
			t.Fatalf("weight %d: prefiltered %0.17g != per-sample %0.17g", i, gw[i], ww[i])
		}
	}
}
