package sim

import (
	"testing"

	"mute/internal/audio"
	"mute/internal/stream"
)

func TestPacketizeReferencePerfectLinkIsIdentity(t *testing.T) {
	ref := audio.Render(audio.NewWhiteNoise(1, fs, 0.5), 1000)
	recv, mask, st, _ := packetize(t, ref, LossTransport{
		Link: stream.LossParams{Seed: 1}, FrameSamples: 40,
	})
	for i := range ref {
		if recv[i] != ref[i] || !mask[i] {
			t.Fatalf("sample %d altered by perfect link: %g vs %g (mask %v)",
				i, recv[i], ref[i], mask[i])
		}
	}
	if st.Link.Dropped != 0 || st.Jitter.SamplesConcealed != 0 {
		t.Errorf("perfect link reported impairments: %+v", st)
	}
}

func TestPacketizeReferenceHandlesPartialTailFrame(t *testing.T) {
	// 1000 samples at frame size 80 leaves a 40-sample tail frame.
	ref := audio.Render(audio.NewWhiteNoise(2, fs, 0.5), 1000)
	recv, mask, _, _ := packetize(t, ref, LossTransport{
		Link: stream.LossParams{Seed: 1}, PrimeFrames: 2,
	})
	if len(recv) != len(ref) || len(mask) != len(ref) {
		t.Fatalf("length changed: %d/%d vs %d", len(recv), len(mask), len(ref))
	}
	for i := range ref {
		if recv[i] != ref[i] || !mask[i] {
			t.Fatalf("sample %d lost on perfect link with prime: %g vs %g", i, recv[i], ref[i])
		}
	}
}

func TestPacketizeReferenceDeterministicAndLossy(t *testing.T) {
	ref := audio.Render(audio.NewWhiteNoise(3, fs, 0.5), 8000)
	lt := LossTransport{
		Link:        stream.LossParams{Seed: 7, Loss: 0.1, MeanBurst: 3},
		FECGroup:    4,
		PrimeFrames: 5,
	}
	r1, m1, s1, _ := packetize(t, ref, lt)
	r2, m2, s2, _ := packetize(t, ref, lt)
	if s1 != s2 {
		t.Errorf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	for i := range r1 {
		if r1[i] != r2[i] || m1[i] != m2[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	if s1.Link.Dropped == 0 {
		t.Error("10% burst loss dropped nothing over 100 frames")
	}
	if s1.FECRecovered == 0 {
		t.Error("FEC recovered nothing despite prime covering the group")
	}
	// Concealed samples must be zero and masked false; real ones intact up
	// to FEC reconstruction rounding (K·parity − Σ received).
	concealed := 0
	for i := range r1 {
		if !m1[i] {
			concealed++
			if r1[i] != 0 {
				t.Fatalf("concealed sample %d not zero: %g", i, r1[i])
			}
		} else if d := r1[i] - ref[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("real sample %d corrupted: %g vs %g", i, r1[i], ref[i])
		}
	}
	if concealed == 0 {
		t.Error("lossy link concealed nothing")
	}
}

func TestPacketizeReferenceValidation(t *testing.T) {
	ref := make([]float64, 100)
	bad := []LossTransport{
		{FrameSamples: -1},
		{PrimeFrames: -1},
		// A prime of the jitter depth overflows the buffer before the
		// first pop and evicts most of the stream.
		{PrimeFrames: jitterDepth},
		{PrimeFrames: 40},
		{FECGroup: 1},
		{Link: stream.LossParams{Loss: 2}},
	}
	for i, lt := range bad {
		if _, err := PacketizeReference(ref, lt); err == nil {
			t.Errorf("case %d: %+v should be rejected", i, lt)
		}
	}
	// The deepest accepted prime still delivers every sample of a perfect
	// link.
	ref = audio.Render(audio.NewWhiteNoise(4, fs, 0.5), 8000)
	recv, _, st, _ := packetize(t, ref, LossTransport{
		Link: stream.LossParams{Seed: 1}, FrameSamples: 40, PrimeFrames: jitterDepth - 1,
	})
	if st.Jitter.SamplesConcealed != 0 || st.Jitter.FramesDropped != 0 || !sameFloats(recv, ref) {
		t.Errorf("prime %d lost samples on a perfect link: %+v", jitterDepth-1, st.Jitter)
	}
}

// TestRunWithLossTransport exercises the engine wiring: the transport's
// prime shift comes out of the lookahead budget, the mask drives
// StepMasked, and the stats surface on the Result.
func TestRunWithLossTransport(t *testing.T) {
	p := DefaultParams(whiteScene(4))
	p.Duration = 2
	p.LossTransport = &LossTransport{
		Link:         stream.LossParams{Seed: 5, Loss: 0.05, MeanBurst: 3},
		FrameSamples: 16,
		FECGroup:     4,
		PrimeFrames:  3,
		LossAware:    true,
	}
	res, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport == nil {
		t.Fatal("Result.Transport not populated")
	}
	if res.Transport.Link.Offered == 0 || res.Transport.Link.Dropped == 0 {
		t.Errorf("transport stats empty: %+v", res.Transport.Link)
	}
	// Prime = 48 samples must come out of the ~70-sample lookahead.
	noLoss := DefaultParams(whiteScene(4))
	noLoss.Duration = 2
	base, err := Run(noLoss, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedNonCausalTaps >= base.UsedNonCausalTaps {
		t.Errorf("prime buffering did not consume lookahead: %d vs %d taps",
			res.UsedNonCausalTaps, base.UsedNonCausalTaps)
	}
	// The canceller must still help: residual below the open ear.
	db, err := res.CancellationDB(50, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if db > 0 {
		t.Errorf("cancellation above passive floor under 5%% loss: %.1f dB", db)
	}
}
