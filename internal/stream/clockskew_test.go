package stream

import (
	"math"
	"testing"

	"mute/internal/dsp"
)

// TestClockSkewDisabledIsExactIdentity pins the property every 0 ppm
// bit-identity test rests on: with no configured skew, Advance returns the
// exact integer sequence 0, 1, 2, ... with no floating-point residue.
func TestClockSkewDisabledIsExactIdentity(t *testing.T) {
	cs, err := NewClockSkew(SkewParams{})
	if err != nil {
		t.Fatal(err)
	}
	if (SkewParams{}).Enabled() {
		t.Error("zero SkewParams reports Enabled")
	}
	for i := 0; i < 10000; i++ {
		if p := cs.Advance(); p != float64(i) {
			t.Fatalf("Advance %d = %v, want exactly %d", i, p, i)
		}
	}
	if pos := cs.Pos(); pos != 10000 {
		t.Errorf("Pos after 10000 advances = %v, want exactly 10000", pos)
	}
	if ppm := cs.PPM(); ppm != 0 {
		t.Errorf("PPM = %v, want exactly 0", ppm)
	}
}

// TestClockSkewConstantSlope checks a constant +100 ppm clock: relay
// samples pack into 1/(1+1e-4) ear samples each, so after n advances the
// position lags n by the accumulated skew.
func TestClockSkewConstantSlope(t *testing.T) {
	cs, err := NewClockSkew(SkewParams{PPM: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := 80000 // 10 s at 8 kHz
	if first := cs.Advance(); first != 0 {
		t.Fatalf("first Advance = %v, want 0", first)
	}
	for i := 1; i < n; i++ {
		cs.Advance()
	}
	want := float64(n) / (1 + 100e-6)
	if got := cs.Pos(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Pos after %d samples at +100 ppm = %v, want %v", n, got, want)
	}
	if ppm := cs.PPM(); ppm != 100 {
		t.Errorf("PPM = %v, want 100", ppm)
	}
}

// TestClockSkewWanderDeterministicBySeed checks the wander walk is a pure
// function of the seed: same seed, same trajectory; different seed,
// different trajectory; and the instantaneous skew respects the ±1000 ppm
// clamp, which a walk this wide reaches.
func TestClockSkewWanderDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) []float64 {
		cs, err := NewClockSkew(SkewParams{Seed: seed, WanderPPM: 500})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 8000)
		clamped := false
		for i := range out {
			out[i] = cs.Advance()
			ppm := cs.PPM()
			if ppm > skewMaxPPM || ppm < -skewMaxPPM {
				t.Fatalf("sample %d: PPM %v escapes the %d ppm clamp", i, ppm, skewMaxPPM)
			}
			clamped = clamped || ppm == skewMaxPPM || ppm == -skewMaxPPM
		}
		if !clamped {
			t.Fatalf("seed %d: the walk never reached the clamp; test is vacuous", seed)
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical wander trajectories")
	}
}

// TestClockSkewSteps checks scheduled oscillator steps apply at their
// relay-sample index, accumulate, and are sorted regardless of slice order.
func TestClockSkewSteps(t *testing.T) {
	cs, err := NewClockSkew(SkewParams{
		PPM: 50,
		Steps: []SkewStep{
			{AtSample: 2000, DeltaPPM: 100}, // given out of order
			{AtSample: 1000, DeltaPPM: 200},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ppmAt := make(map[int]float64)
	for i := 0; i < 3000; i++ {
		cs.Advance()
		ppmAt[i] = cs.PPM()
	}
	if got := ppmAt[999]; got != 50 {
		t.Errorf("PPM before first step = %v, want 50", got)
	}
	if got := ppmAt[1000]; got != 250 {
		t.Errorf("PPM after step at 1000 = %v, want 250", got)
	}
	if got := ppmAt[2500]; got != 350 {
		t.Errorf("PPM after both steps = %v, want 350", got)
	}
}

func TestSkewParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    SkewParams
	}{
		{"negative wander", SkewParams{WanderPPM: -1}},
		{"ppm beyond clamp", SkewParams{PPM: 1500}},
		{"negative ppm beyond clamp", SkewParams{PPM: -1001}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.p)
		}
		if _, err := NewClockSkew(c.p); err == nil {
			t.Errorf("%s: NewClockSkew accepted %+v", c.name, c.p)
		}
	}
	if err := (SkewParams{PPM: -400, WanderPPM: 5, Steps: []SkewStep{{AtSample: 1, DeltaPPM: -3}}}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestSkewParamsEnabled(t *testing.T) {
	cases := []struct {
		p    SkewParams
		want bool
	}{
		{SkewParams{}, false},
		{SkewParams{Seed: 9}, false}, // a seed alone skews nothing
		{SkewParams{PPM: 1}, true},
		{SkewParams{WanderPPM: 0.5}, true},
		{SkewParams{Steps: []SkewStep{{AtSample: 0, DeltaPPM: 10}}}, true},
	}
	for _, c := range cases {
		if got := c.p.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestClockSkewCaptureMatchesAdvance pins Capture to its per-sample
// definition — each relay sample read at its Advance position, silence
// past the end of the signal — on a disabled injector (the shared-slice
// path) and on a skewed one, across a frame that runs off the end.
func TestClockSkewCaptureMatchesAdvance(t *testing.T) {
	x := make([]float64, 1000)
	for i := range x {
		x[i] = math.Sin(0.05 * float64(i))
	}
	for _, p := range []SkewParams{{}, {PPM: 300, Steps: []SkewStep{{AtSample: 500, DeltaPPM: -900}}}} {
		cs, err := NewClockSkew(p)
		if err != nil {
			t.Fatal(err)
		}
		adv, _ := NewClockSkew(p)
		for frame := 0; frame < 26; frame++ {
			got := cs.Capture(x, 40)
			if len(got) != 40 || cap(got) != 40 {
				t.Fatalf("%+v: frame %d len %d cap %d, want 40", p, frame, len(got), cap(got))
			}
			for i, v := range got {
				want := 0.0
				if pos := adv.Advance(); pos < float64(len(x)) {
					want = dsp.CubicInterpAt(x, pos)
				}
				if v != want {
					t.Fatalf("%+v: frame %d sample %d = %v, want %v", p, frame, i, v, want)
				}
			}
			if cs.Pos() != adv.Pos() {
				t.Fatalf("%+v: frame %d Pos %v, want %v", p, frame, cs.Pos(), adv.Pos())
			}
		}
	}
}
