package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBConversions(t *testing.T) {
	if got := DB(10); math.Abs(got-10) > 1e-12 {
		t.Errorf("DB(10) = %g, want 10", got)
	}
	if got := DB(1); got != 0 {
		t.Errorf("DB(1) = %g, want 0", got)
	}
	if got := DB(0); got > -190 {
		t.Errorf("DB(0) = %g, should be very negative but finite", got)
	}
	if math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be finite")
	}
	if got := FromDB(20); math.Abs(got-100) > 1e-9 {
		t.Errorf("FromDB(20) = %g, want 100", got)
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		p := math.Abs(v) + 1e-6
		return math.Abs(FromDB(DB(p))-p) < 1e-9*p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEnergyPowerRMS(t *testing.T) {
	x := []float64{3, 4}
	if got := Energy(x); got != 25 {
		t.Errorf("Energy = %g, want 25", got)
	}
	if got := Power(x); got != 12.5 {
		t.Errorf("Power = %g, want 12.5", got)
	}
	if Power(nil) != 0 {
		t.Error("Power(nil) should be 0")
	}
}

func TestScaleAddSub(t *testing.T) {
	x := []float64{1, 2}
	Scale(x, 2)
	if x[0] != 2 || x[1] != 4 {
		t.Errorf("Scale failed: %v", x)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) should be true", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) should be false", n)
		}
	}
}

func TestWelchPSDTone(t *testing.T) {
	fs := 8000.0
	n := 8192
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / fs)
	}
	psd, err := WelchPSD(x, fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	inBand := psd.BandPower(900, 1100)
	outBand := psd.BandPower(2000, 4000)
	if inBand < 100*outBand {
		t.Errorf("tone power not concentrated: in=%g out=%g", inBand, outBand)
	}
}

func TestWelchPSDWhiteNoiseFlat(t *testing.T) {
	fs := 8000.0
	x := randFloats(65536, 99)
	psd, err := WelchPSD(x, fs, 512)
	if err != nil {
		t.Fatal(err)
	}
	low := psd.BandPower(200, 1200)
	high := psd.BandPower(2200, 3200)
	ratio := low / high
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("white noise PSD not flat: low/high = %g", ratio)
	}
}

func TestWelchPSDErrors(t *testing.T) {
	if _, err := WelchPSD(nil, 8000, 256); err == nil {
		t.Error("empty input should error")
	}
	if _, err := WelchPSD([]float64{1}, 8000, 0); err == nil {
		t.Error("zero segment length should error")
	}
}

func TestWelchPSDShortInput(t *testing.T) {
	// Shorter than one segment must still produce an estimate.
	x := randFloats(100, 7)
	psd, err := WelchPSD(x, 8000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if psd.BandPower(0, math.Inf(1)) <= 0 {
		t.Error("short-input PSD should have positive power")
	}
}

func TestPSDBandEnergies(t *testing.T) {
	fs := 8000.0
	n := 8192
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 500 * float64(i) / fs)
	}
	psd, err := WelchPSD(x, fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bands := psd.BandEnergies(4, 4000) // [0,1k) [1k,2k) [2k,3k) [3k,4k)
	best := 0
	for i := range bands {
		if bands[i] > bands[best] {
			best = i
		}
	}
	if best != 0 {
		t.Errorf("500 Hz tone should dominate band 0, got band %d (%v)", best, bands)
	}
	if got := psd.BandEnergies(0, 4000); len(got) != 0 {
		t.Error("zero bands should return empty")
	}
}

func TestParsevalPSDProperty(t *testing.T) {
	// Total PSD power approximates the signal variance for white noise.
	x := randFloats(32768, 5)
	psd, err := WelchPSD(x, 8000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ratio := psd.BandPower(0, math.Inf(1)) / Power(x)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("PSD total power / signal power = %g, want ~1", ratio)
	}
}

func TestResampleDownUp(t *testing.T) {
	fs := 48000.0
	n := 4800
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / fs)
	}
	y, err := Resample(x, fs, 8000)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := n * 8000 / 48000
	if len(y) < wantLen-2 || len(y) > wantLen+2 {
		t.Errorf("resampled length %d, want ~%d", len(y), wantLen)
	}
	// The 440 Hz tone must survive: check dominant frequency.
	psd, err := WelchPSD(y[100:], 8000, 512)
	if err != nil {
		t.Fatal(err)
	}
	inBand := psd.BandPower(350, 550)
	total := psd.BandPower(0, math.Inf(1))
	if inBand < 0.8*total {
		t.Errorf("tone not preserved by resampling: in-band fraction %g", inBand/total)
	}
}

func TestResampleIdentity(t *testing.T) {
	x := randFloats(100, 1)
	y, err := Resample(x, 8000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsClose(x, y, 0) {
		t.Error("same-rate resample should copy")
	}
}

func TestResampleErrors(t *testing.T) {
	if _, err := Resample([]float64{1}, 0, 8000); err == nil {
		t.Error("zero src rate should error")
	}
	if _, err := Resample([]float64{1}, 8000, -1); err == nil {
		t.Error("negative dst rate should error")
	}
	y, err := Resample(nil, 8000, 4000)
	if err != nil || y != nil {
		t.Error("empty input should return nil, nil")
	}
}

func TestBiquadLowPass(t *testing.T) {
	fs := 8000.0
	bq, err := NewLowPassBiquad(500, fs, 0.7071)
	if err != nil {
		t.Fatal(err)
	}
	if g := bq.Response(50, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("LP gain at 50 Hz = %g, want ~1", g)
	}
	if g := bq.Response(3500, fs); g > 0.05 {
		t.Errorf("LP gain at 3.5 kHz = %g, want ~0", g)
	}
}

func TestBiquadHighPass(t *testing.T) {
	fs := 8000.0
	bq, err := NewHighPassBiquad(500, fs, 0.7071)
	if err != nil {
		t.Fatal(err)
	}
	if g := bq.Response(3500, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("HP gain at 3.5 kHz = %g, want ~1", g)
	}
	if g := bq.Response(50, fs); g > 0.05 {
		t.Errorf("HP gain at 50 Hz = %g, want ~0", g)
	}
}

func TestBiquadPeak(t *testing.T) {
	fs := 8000.0
	bq, err := NewPeakBiquad(1000, fs, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	peak := bq.Response(1000, fs)
	want := math.Pow(10, 6.0/20)
	if math.Abs(peak-want) > 0.1 {
		t.Errorf("peak gain = %g, want ~%g", peak, want)
	}
	if g := bq.Response(100, fs); math.Abs(g-1) > 0.1 {
		t.Errorf("far-field gain = %g, want ~1", g)
	}
}

func TestBiquadErrors(t *testing.T) {
	if _, err := NewLowPassBiquad(5000, 8000, 0.7); err == nil {
		t.Error("corner above Nyquist should error")
	}
	if _, err := NewHighPassBiquad(100, -1, 0.7); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := NewPeakBiquad(100, 8000, 0, 3); err == nil {
		t.Error("zero q should error")
	}
}

func TestBiquadProcessMatchesResponse(t *testing.T) {
	// Drive the filter with a tone and verify steady-state amplitude
	// matches the analytic response.
	fs := 8000.0
	bq, err := NewLowPassBiquad(1000, fs, 0.7071)
	if err != nil {
		t.Fatal(err)
	}
	f := 500.0
	n := 4000
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = bq.Process(math.Sin(2 * math.Pi * f * float64(i) / fs))
	}
	// Steady state: last half.
	got := math.Sqrt(Power(out[n/2:])) * math.Sqrt2
	want := bq.Response(f, fs)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("measured gain %g, analytic %g", got, want)
	}
}

func TestBiquadChain(t *testing.T) {
	fs := 8000.0
	b1, _ := NewHighPassBiquad(100, fs, 0.7071)
	b2, _ := NewLowPassBiquad(3000, fs, 0.7071)
	ch := NewBiquadChain(b1, b2)
	if g := ch.Response(1000, fs); math.Abs(g-1) > 0.1 {
		t.Errorf("chain mid-band gain = %g, want ~1", g)
	}
	if g := ch.Response(10, fs); g > 0.1 {
		t.Errorf("chain gain at 10 Hz = %g, want ~0", g)
	}
	x := randFloats(64, 3)
	y := ch.ProcessBlock(x)
	if len(y) != len(x) {
		t.Error("chain block length mismatch")
	}
	ch.Reset()
	y2 := ch.ProcessBlock(x)
	if !floatsClose(y, y2, 1e-12) {
		t.Error("chain Reset should restore initial state")
	}
}
