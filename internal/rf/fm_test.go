package rf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mute/internal/audio"
	"mute/internal/dsp"
)

func cleanChannel() ChannelParams {
	return ChannelParams{SNRdB: math.Inf(1), Gain: 1}
}

func TestFMParamsValidate(t *testing.T) {
	if err := DefaultFMParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []FMParams{
		{AudioRate: 0, Oversample: 16, DeviationHz: 3000},
		{AudioRate: 8000, Oversample: 1, DeviationHz: 3000},
		{AudioRate: 8000, Oversample: 16, DeviationHz: 0},
		{AudioRate: 8000, Oversample: 2, DeviationHz: 9000},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestModulateConstantEnvelope(t *testing.T) {
	p := DefaultFMParams()
	msg := audio.Render(audio.NewWhiteNoise(1, p.AudioRate, 0.9), 100)
	x, err := Modulate(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != len(msg)*p.Oversample {
		t.Fatalf("baseband length %d, want %d", len(x), len(msg)*p.Oversample)
	}
	for i, v := range x {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("sample %d: envelope %g, want 1 (FM is constant envelope)", i, cmplx.Abs(v))
		}
	}
}

func TestLinkCleanChannelRecoversAudio(t *testing.T) {
	p := DefaultFMParams()
	msg := audio.Render(audio.NewTone(700, p.AudioRate, 0.7, 0), 2000)
	got, err := link(p, cleanChannel(), msg)
	if err != nil {
		t.Fatal(err)
	}
	snr := audioSNR(msg, got)
	if snr < 30 {
		t.Errorf("clean-channel audio SNR = %.1f dB, want > 30", snr)
	}
}

func TestLinkCFOBecomesDCAndIsRemoved(t *testing.T) {
	// The paper's reason for FM: CFO appears as a constant DC offset in
	// the demodulated audio and is averaged out. A large CFO should barely
	// change the recovered tone.
	p := DefaultFMParams()
	msg := audio.Render(audio.NewTone(700, p.AudioRate, 0.7, 0), 4000)
	noCFO, err := link(p, cleanChannel(), msg)
	if err != nil {
		t.Fatal(err)
	}
	withCFO, err := link(p, ChannelParams{SNRdB: math.Inf(1), CFOHz: 2000, Gain: 1}, msg)
	if err != nil {
		t.Fatal(err)
	}
	snrA := audioSNR(msg, noCFO)
	snrB := audioSNR(msg, withCFO)
	if snrB < snrA-6 {
		t.Errorf("CFO degraded SNR too much: %.1f vs %.1f dB", snrB, snrA)
	}
	if snrB < 20 {
		t.Errorf("with-CFO SNR = %.1f dB, want > 20", snrB)
	}
}

func TestLinkAmplitudeDistortionImmunity(t *testing.T) {
	// FM's second property: amplitude distortion (PA saturation, flat
	// gain) does not corrupt the message.
	p := DefaultFMParams()
	msg := audio.Render(audio.NewWhiteNoise(2, p.AudioRate, 0.8), 2000)
	clean, err := link(p, cleanChannel(), msg)
	if err != nil {
		t.Fatal(err)
	}
	hostile := ChannelParams{SNRdB: math.Inf(1), PASaturation: 0.4, Gain: 0.3}
	squashed, err := link(p, hostile, msg)
	if err != nil {
		t.Fatal(err)
	}
	snrClean := audioSNR(msg, clean)
	snrSquashed := audioSNR(msg, squashed)
	if snrSquashed < snrClean-1 {
		t.Errorf("amplitude distortion hurt FM: %.1f vs %.1f dB", snrSquashed, snrClean)
	}
}

func TestLinkNoiseDegradesGracefully(t *testing.T) {
	p := DefaultFMParams()
	msg := audio.Render(audio.NewTone(500, p.AudioRate, 0.7, 0), 4000)
	snrs := []float64{40, 20, 10}
	var audioSNRs []float64
	for _, s := range snrs {
		got, err := link(p, ChannelParams{SNRdB: s, Gain: 1, Seed: 3}, msg)
		if err != nil {
			t.Fatal(err)
		}
		audioSNRs = append(audioSNRs, audioSNR(msg, got))
	}
	if !(audioSNRs[0] > audioSNRs[1] && audioSNRs[1] > audioSNRs[2]) {
		t.Errorf("audio SNR should fall with channel SNR: %v", audioSNRs)
	}
	if audioSNRs[0] < 25 {
		t.Errorf("40 dB channel should give > 25 dB audio, got %.1f", audioSNRs[0])
	}
}

func TestLinkRoundTripProperty(t *testing.T) {
	// Any bounded message survives a clean link with high fidelity.
	p := DefaultFMParams()
	f := func(seed uint64) bool {
		msg := audio.Render(audio.NewWhiteNoise(seed, p.AudioRate, 0.7), 800)
		got, err := link(p, cleanChannel(), msg)
		if err != nil {
			return false
		}
		// Full-deviation white noise carries inherent zero-order-hold
		// distortion; 15 dB is the conservative fidelity floor.
		return audioSNR(msg, got) > 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDemodulateEmpty(t *testing.T) {
	p := DefaultFMParams()
	got, err := Demodulate(p, nil)
	if err != nil || got != nil {
		t.Error("empty demodulate should return nil, nil")
	}
}

func TestModulateValidates(t *testing.T) {
	if _, err := Modulate(FMParams{}, []float64{0}); err == nil {
		t.Error("invalid params should error")
	}
	if _, err := Demodulate(FMParams{}, []complex128{1}); err == nil {
		t.Error("invalid params should error")
	}
	if _, err := Apply(FMParams{}, DefaultChannel(), nil); err == nil {
		t.Error("invalid params should error")
	}
}

func TestPhaseNoiseDegrades(t *testing.T) {
	p := DefaultFMParams()
	msg := audio.Render(audio.NewTone(500, p.AudioRate, 0.7, 0), 4000)
	clean, err := link(p, cleanChannel(), msg)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := link(p, ChannelParams{SNRdB: math.Inf(1), PhaseNoiseStd: 0.05, Gain: 1, Seed: 5}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if audioSNR(msg, noisy) >= audioSNR(msg, clean) {
		t.Error("heavy phase noise should reduce audio SNR")
	}
}

func TestAudioSNRPerfect(t *testing.T) {
	x := audio.Render(audio.NewTone(440, 8000, 0.5, 0), 1000)
	if !math.IsInf(audioSNR(x, x), 1) {
		t.Error("identical signals should have infinite SNR")
	}
	if audioSNR(nil, nil) != 0 {
		t.Error("empty signals should have 0 SNR")
	}
}

func TestRelayCapture(t *testing.T) {
	fm := DefaultFMParams()
	r, err := NewRelay(DefaultRelayParams(), fm)
	if err != nil {
		t.Fatal(err)
	}
	in := audio.Render(audio.NewTone(500, fm.AudioRate, 0.5, 0), 4000)
	out := r.Capture(in)
	if len(out) != len(in) {
		t.Fatal("capture length mismatch")
	}
	// The 500 Hz tone is inside the LPF passband: power preserved within 3 dB.
	pr := dsp.Power(out[500:]) / dsp.Power(in[500:])
	if pr < 0.5 || pr > 2 {
		t.Errorf("capture power ratio = %g, want ~1", pr)
	}
}

func TestRelayForwardEndToEnd(t *testing.T) {
	fm := DefaultFMParams()
	r, err := NewRelay(DefaultRelayParams(), fm)
	if err != nil {
		t.Fatal(err)
	}
	in := audio.Render(audio.NewTone(700, fm.AudioRate, 0.5, 0), 4000)
	out, err := r.Forward(in, DefaultChannel())
	if err != nil {
		t.Fatal(err)
	}
	// The forwarded audio should strongly correlate with the source tone.
	snr := audioSNR(in, out)
	if snr < 15 {
		t.Errorf("relay forward audio SNR = %.1f dB, want > 15", snr)
	}
}

func TestRelayErrors(t *testing.T) {
	fm := DefaultFMParams()
	if _, err := NewRelay(RelayParams{MicNoiseRMS: -1, Gain: 1}, fm); err == nil {
		t.Error("negative mic noise should error")
	}
	if _, err := NewRelay(RelayParams{Gain: 0}, fm); err == nil {
		t.Error("zero gain should error")
	}
	if _, err := NewRelay(DefaultRelayParams(), FMParams{}); err == nil {
		t.Error("invalid FM params should error")
	}
}

func TestRelayLPFDefaultsWhenCutoffInvalid(t *testing.T) {
	fm := DefaultFMParams()
	rp := DefaultRelayParams()
	rp.LPFCutoffHz = 99999 // above Nyquist → clamp to default
	if _, err := NewRelay(rp, fm); err != nil {
		t.Errorf("out-of-range cutoff should fall back, got error: %v", err)
	}
}

func BenchmarkFMLink(b *testing.B) {
	p := DefaultFMParams()
	msg := audio.Render(audio.NewWhiteNoise(1, p.AudioRate, 0.7), 800)
	ch := DefaultChannel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := link(p, ch, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// link runs message audio through the full modulate → channel → demodulate
// chain and returns the recovered audio.
func link(p FMParams, ch ChannelParams, msg []float64) ([]float64, error) {
	tx, err := Modulate(p, msg)
	if err != nil {
		return nil, err
	}
	rx, err := Apply(p, ch, tx)
	if err != nil {
		return nil, err
	}
	return Demodulate(p, rx)
}

// audioSNR measures the recovered-audio SNR in dB given the reference
// message, aligning only amplitudes (the FM chain is delay-free by
// construction).
func audioSNR(ref, got []float64) float64 {
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	if n == 0 {
		return 0
	}
	// Skip the DC-tracker warmup.
	skip := n / 8
	var sigPow, errPow float64
	for i := skip; i < n; i++ {
		sigPow += ref[i] * ref[i]
		d := got[i] - ref[i]
		errPow += d * d
	}
	if errPow == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sigPow/errPow)
}
