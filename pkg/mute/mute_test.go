package mute

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestFacadeSimulationFlow(t *testing.T) {
	gen := WhiteNoise(1, 8000, 0.5)
	p := DefaultParams(DefaultScene(gen))
	p.Duration = 4
	r, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Summarize(r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheme != "MUTE_Hollow" {
		t.Errorf("scheme = %q", rep.Scheme)
	}
	if rep.FullBandDB > 0 {
		t.Errorf("cancellation should not amplify: %.1f dB", rep.FullBandDB)
	}
	if rep.LookaheadMs < 5 || rep.LookaheadMs > 12 {
		t.Errorf("lookahead = %.1f ms, want ≈ 8.8", rep.LookaheadMs)
	}
	if rep.String() == "" {
		t.Error("report should render")
	}
	freqs, dB, err := Spectrum(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != len(dB) || len(freqs) == 0 {
		t.Error("spectrum shape mismatch")
	}
}

// TestFacadeBoseActiveIsOnVsOff checks that the facade reports
// BoseActive as the ANC's own gain (On vs Off under the cup): above 1 kHz,
// where the headphone's anti-noise is band-limited away, it reads about
// 0 dB, unlike Bose_Overall's passive-cup gain from the same recording.
func TestFacadeBoseActiveIsOnVsOff(t *testing.T) {
	p := DefaultParams(DefaultScene(WhiteNoise(1, 8000, 0.5)))
	p.Duration = 3
	active, err := Run(p, BoseActive)
	if err != nil {
		t.Fatal(err)
	}
	overall, err := Run(p, BoseOverall)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Summarize(active)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Summarize(overall)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra.HighBandDB) > 3 {
		t.Errorf("bose-active above 1 kHz = %.1f dB, want within 3 dB of 0", ra.HighBandDB)
	}
	if ra.HighBandDB-ro.HighBandDB < 6 {
		t.Errorf("bose-active above 1 kHz (%.1f dB) should differ from bose-overall (%.1f dB)",
			ra.HighBandDB, ro.HighBandDB)
	}
	want, err := active.ActiveGainDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if ra.FullBandDB != want {
		t.Errorf("bose-active full band = %v, want ActiveGainDB %v", ra.FullBandDB, want)
	}
	freqs, dB, err := Spectrum(active)
	if err != nil {
		t.Fatal(err)
	}
	var high float64
	var n int
	for i, f := range freqs {
		if f > 1500 && f < 3500 {
			high += dB[i]
			n++
		}
	}
	if high /= float64(n); math.Abs(high) > 3 {
		t.Errorf("bose-active spectrum 1.5–3.5 kHz = %.1f dB, want within 3 dB of 0", high)
	}
}

func TestFacadeGenerators(t *testing.T) {
	gens := []Generator{
		WhiteNoise(1, 8000, 0.5),
		MachineHum(2, 120, 8000, 0.5),
		MaleSpeech(3, 8000, 0.5),
		FemaleSpeech(4, 8000, 0.5),
		Music(5, 8000, 0.5),
		Construction(6, 8000, 0.5),
		Babble(7, 3, 8000, 0.5),
	}
	for i, g := range gens {
		if g.SampleRate() != 8000 {
			t.Errorf("generator %d rate mismatch", i)
		}
		var energy float64
		for k := 0; k < 16000; k++ {
			v := g.Next()
			energy += v * v
		}
		if energy == 0 {
			t.Errorf("generator %d produced silence", i)
		}
	}
}

func TestFacadeWAVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.wav")
	in := make([]float64, 100)
	for i := range in {
		in[i] = math.Sin(float64(i) / 10)
	}
	if err := SaveWAV(path, in, 8000); err != nil {
		t.Fatal(err)
	}
	out, rate, err := LoadWAV(path)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 8000 || len(out) != len(in) {
		t.Fatalf("round trip: rate=%d len=%d", rate, len(out))
	}
	if err := SaveWAV(filepath.Join(dir, "nodir", "x.wav"), in, 8000); err == nil {
		t.Error("save into missing dir should error")
	}
	if _, _, err := LoadWAV(filepath.Join(dir, "missing.wav")); err == nil {
		t.Error("load missing file should error")
	}
}

func TestFacadeCancellerEmbedding(t *testing.T) {
	c, err := NewCanceller(CancellerConfig{
		NonCausalTaps: 8,
		CausalTaps:    16,
		Mu:            0.2,
		Normalized:    true,
		SecondaryPath: []float64{0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Push(0.5)
		_ = c.AntiNoise()
		c.Adapt(0.01)
	}
	b, err := PlanBudget(24, PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !b.DeadlineMet || b.UsableTaps != 20 {
		t.Errorf("budget = %+v", b)
	}
}

func TestFacadeRelaySelection(t *testing.T) {
	local := make([]float64, 1024)
	lead := make([]float64, 1024)
	lag := make([]float64, 1024)
	g := WhiteNoise(9, 8000, 0.7)
	base := make([]float64, 1100)
	for i := range base {
		base[i] = g.Next()
	}
	copy(local, base[30:])
	copy(lead, base[60:])  // content advanced: leads local by 30
	copy(lag, base[:1024]) // content delayed: lags local by 30
	sel, err := SelectRelay([][]float64{lag, lead}, local, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best != 1 {
		t.Errorf("best relay = %d, want 1 (the leading one); reports %+v", sel.Best, sel.Reports)
	}
}

func TestFacadeStreaming(t *testing.T) {
	rx, err := NewReceiver("127.0.0.1:0", 32)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewSender(rx.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	in := make([]float64, 160)
	for i := range in {
		in[i] = math.Sin(float64(i) / 5)
	}
	if err := tx.Send(in); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for rx.Buffered() < 2 && time.Now().Before(deadline) {
		if _, err := rx.Poll(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, 160)
	if got := rx.Pop(out); got < 150 {
		t.Errorf("delivered %d samples", got)
	}
}

func TestFacadeVariants(t *testing.T) {
	p := DefaultParams(DefaultScene(WhiteNoise(11, 8000, 0.5)))
	p.Duration = 3
	r, err := RunVariant(VariantParams{Base: p, Variant: SmartNoise})
	if err != nil {
		t.Fatal(err)
	}
	if r.LookaheadSamples <= 0 {
		t.Error("smart-noise lookahead should be positive")
	}
	if _, err := RunVariant(VariantParams{Base: p, Variant: 99}); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestFacadeFromSamples(t *testing.T) {
	data := make([]float64, 4800)
	for i := range data {
		data[i] = math.Sin(2 * math.Pi * 440 * float64(i) / 48000)
	}
	gen, err := FromSamples(data, 48000, 8000, true)
	if err != nil {
		t.Fatal(err)
	}
	if gen.SampleRate() != 8000 {
		t.Error("resampled generator rate mismatch")
	}
	var energy float64
	for i := 0; i < 1600; i++ {
		v := gen.Next()
		energy += v * v
	}
	if energy == 0 {
		t.Error("resampled source should produce sound")
	}
	if _, err := FromSamples(data, 0, 8000, true); err == nil {
		t.Error("zero source rate should error")
	}
}

func TestFacadeAmbienceGenerators(t *testing.T) {
	for name, g := range map[string]Generator{
		"traffic":      Traffic(1, 8000, 0.5, 12),
		"announcement": Announcement(2, 8000, 0.8),
	} {
		var energy float64
		for i := 0; i < 80000; i++ {
			v := g.Next()
			energy += v * v
		}
		if energy == 0 {
			t.Errorf("%s produced silence", name)
		}
	}
}
