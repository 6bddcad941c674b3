package relaysel

import (
	"testing"
	"testing/quick"

	"mute/internal/audio"
	"mute/internal/dsp"
)

// delayed returns x delayed by d samples (zero-padded head), same length.
func delayed(x []float64, d int) []float64 {
	out := make([]float64, len(x))
	if d < 0 {
		copy(out, x[-d:])
		return out
	}
	copy(out[d:], x)
	return out
}

func TestGCCPHATFindsKnownLag(t *testing.T) {
	x := audio.Render(audio.NewWhiteNoise(1, 8000, 0.7), 2048)
	for _, lag := range []int{0, 5, 23, -17} {
		local := delayed(x, lag)
		c, err := GCCPHAT(x, local, 64)
		if err != nil {
			t.Fatal(err)
		}
		if c.LagSamples != lag {
			t.Errorf("lag = %d, want %d", c.LagSamples, lag)
		}
	}
}

func TestGCCPHATRobustToNoiseAndFiltering(t *testing.T) {
	// The local signal passes through a room-ish channel and picks up
	// noise; PHAT weighting should still find the dominant delay.
	x := audio.Render(audio.NewWhiteNoise(2, 8000, 0.7), 4096)
	ch := dsp.NewStreamConvolver([]float64{1.0, 0.4, 0.2, 0.1})
	rng := audio.NewRNG(3)
	local := delayed(ch.ProcessBlock(x), 23)
	for i := range local {
		local[i] += 0.05 * rng.Norm()
	}
	c, err := GCCPHAT(x, local, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.LagSamples < 21 || c.LagSamples > 25 {
		t.Errorf("lag = %d, want ≈ 23", c.LagSamples)
	}
}

func TestGCCPHATErrors(t *testing.T) {
	x := make([]float64, 100)
	if _, err := GCCPHAT(nil, nil, 10); err == nil {
		t.Error("empty signals should error")
	}
	if _, err := GCCPHAT(x, x[:50], 10); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := GCCPHAT(x, x, 0); err == nil {
		t.Error("zero maxLag should error")
	}
	if _, err := GCCPHAT(x, x, 50); err == nil {
		t.Error("maxLag >= n/2 should error")
	}
}

func TestGCCPHATLagSignProperty(t *testing.T) {
	// Property: for any white signal and |lag| < 40, GCC-PHAT recovers
	// the sign of the injected delay.
	f := func(seed uint64) bool {
		x := audio.Render(audio.NewWhiteNoise(seed, 8000, 0.7), 2048)
		lag := int(seed%79) - 39
		c, err := GCCPHAT(x, delayed(x, lag), 64)
		if err != nil {
			return false
		}
		return c.LagSamples == lag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSelectRelayPicksMaxLookahead(t *testing.T) {
	x := audio.Render(audio.NewWhiteNoise(5, 8000, 0.7), 4096)
	local := delayed(x, 0)
	// Relay 0 leads by 10, relay 1 by 30 (the winner), relay 2 lags.
	forwarded := [][]float64{
		delayed(x, -10),
		delayed(x, -30),
		delayed(x, 15),
	}
	sel, err := SelectRelay(forwarded, local, 64, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best != 1 {
		t.Errorf("best relay = %d, want 1; reports %+v", sel.Best, sel.Reports)
	}
	if sel.Reports[0].Index != 1 || sel.Reports[0].LagSamples != 30 {
		t.Errorf("top report %+v, want relay 1 at lag 30", sel.Reports[0])
	}
}

func TestSelectRelayNoneWhenAllNegative(t *testing.T) {
	// All relays hear the sound after the ear device: no association
	// (Figure 19's gray markers).
	x := audio.Render(audio.NewWhiteNoise(6, 8000, 0.7), 4096)
	local := x
	forwarded := [][]float64{delayed(x, 8), delayed(x, 20)}
	sel, err := SelectRelay(forwarded, local, 64, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best != -1 {
		t.Errorf("best = %d, want -1 (no relay)", sel.Best)
	}
}

func TestSelectRelayErrors(t *testing.T) {
	if _, err := SelectRelay(nil, nil, 10, 1, 0.1); err == nil {
		t.Error("no relays should error")
	}
	x := make([]float64, 100)
	if _, err := SelectRelay([][]float64{x[:10]}, x, 10, 1, 0.1); err == nil {
		t.Error("bad relay signal should error")
	}
}

func BenchmarkGCCPHAT4096(b *testing.B) {
	x := audio.Render(audio.NewWhiteNoise(1, 8000, 0.7), 4096)
	local := delayed(x, 23)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GCCPHAT(x, local, 128); err != nil {
			b.Fatal(err)
		}
	}
}
