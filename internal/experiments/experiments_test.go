package experiments

import (
	"reflect"
	"testing"

	"mute/internal/telemetry"
)

// quickCfg keeps experiment tests fast while preserving the shapes the
// assertions check. Full-length runs happen in the benchmark harness.
func quickCfg() Config {
	return Config{Duration: 6, Bands: 16}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.SampleRate != 8000 || c.Duration != 12 || c.Seed != 1 || c.NoiseAmp != 0.5 || c.Bands != 32 {
		t.Errorf("defaults wrong: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Duration: 3, Bands: 8}.Defaults()
	if c2.Duration != 3 || c2.Bands != 8 {
		t.Error("explicit values should survive Defaults")
	}
}

func TestFig12Shapes(t *testing.T) {
	fig, err := Fig12(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("fig12 should have 4 series, got %d", len(fig.Series))
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	boseActive := byName["Bose_Active"]
	boseOverall := byName["Bose_Overall"]
	muteHollow := byName["MUTE_Hollow"]
	mutePassive := byName["MUTE+Passive"]
	// Shape 1: Bose_Active works below 1 kHz, not above.
	if low, high := bandAvg(boseActive, 100, 1000), bandAvg(boseActive, 1500, 4000); low >= high-1 {
		t.Errorf("Bose_Active: low band %.1f should clearly beat high band %.1f", low, high)
	}
	// Shape 2: MUTE_Hollow cancels across the whole band.
	if high := bandAvg(muteHollow, 1000, 4000); high > -4 {
		t.Errorf("MUTE_Hollow high band = %.1f dB, want < -4", high)
	}
	// Shape 3: MUTE+Passive clearly the best overall.
	if mp, bo := bandAvg(mutePassive, 0, 4000), bandAvg(boseOverall, 0, 4000); mp > bo-4 {
		t.Errorf("MUTE+Passive %.1f should beat Bose_Overall %.1f by >4 dB", mp, bo)
	}
	// Shape 4: MUTE_Hollow comparable to Bose_Overall (within several dB).
	if mh, bo := bandAvg(muteHollow, 0, 4000), bandAvg(boseOverall, 0, 4000); mh-bo > 8 {
		t.Errorf("MUTE_Hollow %.1f too far behind Bose_Overall %.1f", mh, bo)
	}
	if len(fig.Notes) != 4 {
		t.Error("fig12 should carry 4 headline notes")
	}
}

// TestFig12RunsBoseOnce checks that Fig12 draws both Bose curves from one
// headphone simulation: its merged telemetry counts three sim.Runs for
// the four curves, which keep their order.
func TestFig12RunsBoseOnce(t *testing.T) {
	cfg := Config{Duration: 1.5, Bands: 8, Telemetry: telemetry.NewRegistry()}
	fig, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs := cfg.Telemetry.Snapshot().Counters["sim.runs"]; runs != 3 {
		t.Errorf("fig12 ran %d simulations, want 3", runs)
	}
	var names []string
	for _, s := range fig.Series {
		names = append(names, s.Name)
	}
	want := []string{"Bose_Active", "Bose_Overall", "MUTE_Hollow", "MUTE+Passive"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("series %v, want %v", names, want)
	}
}

func TestFig13Shape(t *testing.T) {
	fig, err := Fig13(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.X) == 0 {
		t.Fatal("empty response curve")
	}
	// Weak at the lowest measured frequency relative to mid band.
	var low, mid float64
	for i, f := range s.X {
		if f < 100 && low == 0 {
			low = s.Y[i]
		}
		if f >= 900 && f <= 1100 && mid == 0 {
			mid = s.Y[i]
		}
	}
	if low >= mid {
		t.Errorf("response should be weak below 100 Hz: low=%g mid=%g", low, mid)
	}
}

func TestFig14Shapes(t *testing.T) {
	c := quickCfg()
	fig, err := Fig14(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 8 {
		t.Fatalf("fig14 should have 8 series (4 sounds × 2 schemes), got %d", len(fig.Series))
	}
	// Every MUTE_Hollow series must show real cancellation.
	for _, s := range fig.Series {
		if len(s.X) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
	}
	for i := 0; i < len(fig.Series); i += 2 {
		mute := fig.Series[i]
		if avg := bandAvg(mute, 0, 4000); avg > -2 {
			t.Errorf("%s: MUTE_Hollow average %.1f dB, want < -2", mute.Name, avg)
		}
	}
}

func TestFig15EveryListenerPrefersMUTE(t *testing.T) {
	fig, err := Fig15(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("fig15 should have 4 series, got %d", len(fig.Series))
	}
	// Series come in MUTE/Bose pairs per sound.
	for p := 0; p < len(fig.Series); p += 2 {
		muteS, boseS := fig.Series[p], fig.Series[p+1]
		for i := range muteS.Y {
			if muteS.Y[i] < boseS.Y[i] {
				t.Errorf("%s listener %d: MUTE %.1f < Bose %.1f", muteS.Name, i+1, muteS.Y[i], boseS.Y[i])
			}
			if muteS.Y[i] < 1 || muteS.Y[i] > 5 {
				t.Errorf("rating out of range: %g", muteS.Y[i])
			}
		}
	}
}

func TestFig16MonotoneInLookahead(t *testing.T) {
	fig, err := Fig16(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("fig16 should have 4 series, got %d", len(fig.Series))
	}
	var avgs []float64
	for _, s := range fig.Series {
		avgs = append(avgs, bandAvg(s, 0, 4000))
	}
	// More lookahead (later series) must not be worse than the lower
	// bound, and the largest lookahead must clearly beat the lower bound.
	if avgs[3] >= avgs[0] {
		t.Errorf("max lookahead (%.1f dB) should beat lower bound (%.1f dB)", avgs[3], avgs[0])
	}
	for i := 1; i < 4; i++ {
		if avgs[i] > avgs[i-1]+1.5 {
			t.Errorf("lookahead step %d worsened cancellation: %v", i, avgs)
		}
	}
}

func TestFig17ProfilingHelps(t *testing.T) {
	fig, err := Fig17(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	avg := bandAvg(fig.Series[0], 0, 4000)
	if avg > 0.5 {
		t.Errorf("profiling should not hurt: additional cancellation %.1f dB", avg)
	}
	if len(fig.Notes) < 2 {
		t.Fatal("fig17 should report the controlled upper bound")
	}
}

func TestFig17ControlledUpperBound(t *testing.T) {
	gain, err := alternatingSourceGain(Config{Duration: 10}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if gain < 1.5 {
		t.Errorf("controlled switching gain = %.1f dB, want > 1.5 (paper: ≈3)", gain)
	}
}

func TestFig18LookaheadSigns(t *testing.T) {
	fig, err := Fig18(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig18 should have 2 series, got %d", len(fig.Series))
	}
	peakLag := func(s Series) float64 {
		best := 0
		for i := range s.Y {
			if s.Y[i] > s.Y[best] {
				best = i
			}
		}
		return s.X[best]
	}
	if lag := peakLag(fig.Series[0]); lag <= 0 {
		t.Errorf("positive-lookahead case peaked at %.2f ms, want > 0", lag)
	}
	if lag := peakLag(fig.Series[1]); lag >= 0 {
		t.Errorf("negative-lookahead case peaked at %.2f ms, want < 0", lag)
	}
}

func TestFig19SelectionAccuracy(t *testing.T) {
	fig, err := Fig19(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	expect, got := fig.Series[0], fig.Series[1]
	if len(expect.Y) != len(got.Y) || len(expect.Y) == 0 {
		t.Fatal("selection series shape mismatch")
	}
	correct := 0
	for i := range expect.Y {
		if expect.Y[i] == got.Y[i] {
			correct++
		}
	}
	// The paper reports consistent selection; allow a small margin for
	// reverberant corner cases.
	if frac := float64(correct) / float64(len(expect.Y)); frac < 0.8 {
		t.Errorf("relay selection accuracy %.0f%%, want >= 80%%", frac*100)
	}
}

func TestLookaheadTable(t *testing.T) {
	fig, err := LookaheadTable(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	// Lookahead grows linearly with the gap; 1 m ≈ 2.94 ms.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] <= s.Y[i-1] {
			t.Error("lookahead should grow with distance gap")
		}
	}
	for i, g := range s.X {
		want := g / 340 * 1000
		if diff := s.Y[i] - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("gap %g m: lookahead %.3f ms, want %.3f", g, s.Y[i], want)
		}
	}
}

func TestAblationTapsImproves(t *testing.T) {
	fig, err := AblationTaps(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if s.Y[len(s.Y)-1] >= s.Y[0] {
		t.Errorf("N=64 (%.1f dB) should beat N=1 (%.1f dB)", s.Y[len(s.Y)-1], s.Y[0])
	}
}

func TestAblationFMSNRTrend(t *testing.T) {
	fig, err := AblationFMSNR(Config{Duration: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	// Cancellation at the cleanest channel should beat the noisiest.
	if s.Y[len(s.Y)-1] >= s.Y[0] {
		t.Errorf("clean channel (%.1f dB) should beat 10 dB SNR (%.1f dB)", s.Y[len(s.Y)-1], s.Y[0])
	}
}

func TestAblationNormalization(t *testing.T) {
	fig, err := AblationNormalization(Config{Duration: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series[0].Y) != 5 {
		t.Fatal("mu sweep size mismatch")
	}
	for _, v := range fig.Series[0].Y {
		if v > 3 {
			t.Errorf("some µ diverged: %v", fig.Series[0].Y)
			break
		}
	}
}

// TestByIDCoversAll checks the registry: 24 unique ids, each resolving
// through ByID, and nothing else resolving.
func TestByIDCoversAll(t *testing.T) {
	ids := IDs()
	if len(ids) != 24 {
		t.Errorf("%d registered experiments, want 24: %v", len(ids), ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("id %q registered twice", id)
		}
		seen[id] = true
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}
