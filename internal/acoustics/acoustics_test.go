package acoustics

import (
	"math"
	"testing"
	"testing/quick"

	"mute/internal/dsp"
)

func TestPointGeometry(t *testing.T) {
	a := Point{0, 0, 0}
	b := Point{3, 4, 0}
	if d := a.Dist(b); d != 5 {
		t.Errorf("Dist = %g, want 5", d)
	}
	if d := b.Dist(b); d != 0 {
		t.Errorf("self distance = %g", d)
	}
	s := b.Sub(a)
	if s != b {
		t.Errorf("Sub = %v", s)
	}
	if b.String() != "(3.00, 4.00, 0.00)" {
		t.Errorf("String = %q", b.String())
	}
}

func TestDelays(t *testing.T) {
	// 1 m of sound ≈ 2.94 ms; 1 m of RF ≈ 3.3 ns.
	if d := AcousticDelay(1); math.Abs(d-1/340.0) > 1e-12 {
		t.Errorf("AcousticDelay(1) = %g", d)
	}
	if d := RFDelay(1); d > 1e-8 || d <= 0 {
		t.Errorf("RFDelay(1) = %g", d)
	}
}

func TestLookaheadPaperExample(t *testing.T) {
	// Paper: (de - dr) = 1 m gives ≈ 3 ms lookahead.
	source := Point{0.5, 2, 1.5}
	relay := Point{1.5, 2, 1.5} // 1 m from source
	ear := Point{2.5, 2, 1.5}   // 2 m from source
	la := Lookahead(source, relay, ear)
	if math.Abs(la-1/340.0) > 1e-6 {
		t.Errorf("lookahead = %g s, want ≈ %g s", la, 1/340.0)
	}
	// ≈ 2.94 ms, "≈3 ms" in the paper.
	if la < 2.8e-3 || la > 3.1e-3 {
		t.Errorf("lookahead %g s outside the paper's ≈3 ms", la)
	}
	if n := int(la * 8000); n != 23 {
		t.Errorf("lookahead samples = %d, want 23 (2.94 ms at 8 kHz)", n)
	}
}

func TestLookaheadNegativeWhenRelayBehind(t *testing.T) {
	// Noise arrives from the opposite side: relay farther than ear.
	source := Point{4.5, 2, 1.5}
	relay := Point{0.5, 2, 1.5}
	ear := Point{2.5, 2, 1.5}
	if la := Lookahead(source, relay, ear); la >= 0 {
		t.Errorf("lookahead should be negative, got %g", la)
	}
}

func TestLookaheadSignProperty(t *testing.T) {
	// Property: lookahead is positive iff the relay is closer to the
	// source than the ear is (ignoring the tiny RF term).
	f := func(sx, sy, rx, ry, ex, ey float64) bool {
		wrap := func(v float64) float64 { return 0.5 + math.Mod(math.Abs(v), 3.5) }
		source := Point{wrap(sx), wrap(sy), 1.5}
		relay := Point{wrap(rx), wrap(ry), 1.5}
		ear := Point{wrap(ex), wrap(ey), 1.5}
		la := Lookahead(source, relay, ear)
		dr := source.Dist(relay)
		de := source.Dist(ear)
		if math.Abs(de-dr) < 1e-3 {
			return true // too close to call; RF term may flip the sign
		}
		return (la > 0) == (de > dr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAttenuation(t *testing.T) {
	if g := Attenuation(1, 1); g != 1 {
		t.Errorf("unit distance gain = %g", g)
	}
	if g := Attenuation(2, 1); g != 0.5 {
		t.Errorf("2 m gain = %g, want 0.5", g)
	}
	// Clamped near field.
	if g := Attenuation(0.01, 1); g != 10 {
		t.Errorf("near-field clamp gain = %g, want 10", g)
	}
}

func TestRoomValidate(t *testing.T) {
	r := DefaultRoom()
	if err := r.Validate(); err != nil {
		t.Errorf("default room invalid: %v", err)
	}
	bad := []Room{
		{Size: Point{0, 4, 3}, Absorption: 0.5},
		{Size: Point{5, 4, 3}, Absorption: 0},
		{Size: Point{5, 4, 3}, Absorption: 1.5},
		{Size: Point{5, 4, 3}, Absorption: 0.5, MaxOrder: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestRoomInside(t *testing.T) {
	r := DefaultRoom()
	if !r.Inside(Point{2, 2, 1}) {
		t.Error("center should be inside")
	}
	for _, p := range []Point{{-1, 2, 1}, {2, 5, 1}, {2, 2, 4}, {0, 0, 0}} {
		if r.Inside(p) {
			t.Errorf("%v should be outside", p)
		}
	}
}

// anechoicRoom has fully absorptive walls: only the direct path survives.
var anechoicRoom = Room{Size: Point{5, 4, 3}, Absorption: 1, MaxOrder: 0}

func TestImpulseResponseDirectPath(t *testing.T) {
	// In an anechoic room the RIR is a single (fractionally interpolated)
	// spike at the direct-path delay with 1/d gain.
	r := anechoicRoom
	src := Point{1, 2, 1.5}
	dst := Point{3, 2, 1.5} // 2 m away
	fs := 8000.0
	h, err := r.ImpulseResponse(src, dst, fs)
	if err != nil {
		t.Fatal(err)
	}
	wantDelay := AcousticDelay(2) * fs // ≈ 47.06 samples
	// Find the peak.
	peak := 0
	for i := range h {
		if math.Abs(h[i]) > math.Abs(h[peak]) {
			peak = i
		}
	}
	if math.Abs(float64(peak)-wantDelay) > 2 {
		t.Errorf("RIR peak at %d, want ≈ %.1f", peak, wantDelay)
	}
	// Total gain ≈ 0.5 (1/d at 2 m).
	var sum float64
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-0.5) > 0.05 {
		t.Errorf("RIR DC gain = %g, want ≈ 0.5", sum)
	}
}

func TestImpulseResponseReverbAddsEnergyAndTail(t *testing.T) {
	src := Point{1, 2, 1.5}
	dst := Point{3, 2, 1.5}
	fs := 8000.0
	an := anechoicRoom
	rev := DefaultRoom()
	ha, err := an.ImpulseResponse(src, dst, fs)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := rev.ImpulseResponse(src, dst, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr) <= len(ha) {
		t.Errorf("reverberant RIR (%d taps) should be longer than anechoic (%d)", len(hr), len(ha))
	}
	if dsp.Energy(hr) <= dsp.Energy(ha) {
		t.Error("reverberant RIR should carry more energy than direct path alone")
	}
}

func TestImpulseResponseReciprocityProperty(t *testing.T) {
	// Swapping source and destination leaves the RIR unchanged
	// (acoustic reciprocity holds for the image-source model).
	r := DefaultRoom()
	fs := 8000.0
	f := func(ax, ay, bx, by float64) bool {
		wrap := func(v, lim float64) float64 { return 0.5 + math.Mod(math.Abs(v), lim-1) }
		a := Point{wrap(ax, 5), wrap(ay, 4), 1.5}
		b := Point{wrap(bx, 5), wrap(by, 4), 1.5}
		h1, err := r.ImpulseResponse(a, b, fs)
		if err != nil {
			return false
		}
		h2, err := r.ImpulseResponse(b, a, fs)
		if err != nil {
			return false
		}
		if len(h1) != len(h2) {
			return false
		}
		for i := range h1 {
			if math.Abs(h1[i]-h2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestImpulseResponseErrors(t *testing.T) {
	r := DefaultRoom()
	inside := Point{1, 1, 1}
	outside := Point{9, 9, 9}
	if _, err := r.ImpulseResponse(outside, inside, 8000); err == nil {
		t.Error("outside source should error")
	}
	if _, err := r.ImpulseResponse(inside, outside, 8000); err == nil {
		t.Error("outside destination should error")
	}
	if _, err := r.ImpulseResponse(inside, inside, 0); err == nil {
		t.Error("zero sample rate should error")
	}
	bad := Room{Size: Point{5, 4, 3}, Absorption: -1}
	if _, err := bad.ImpulseResponse(inside, inside, 8000); err == nil {
		t.Error("invalid room should error")
	}
}

func TestDirectDelaySamples(t *testing.T) {
	a := Point{0.5, 0.5, 0.5}
	b := Point{0.5, 0.5, 1.5} // 1 m
	got := DirectDelaySamples(a, b, 8000)
	want := 8000.0 / 340.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("DirectDelaySamples = %g, want %g", got, want)
	}
}

func TestFartherMicHearsLater(t *testing.T) {
	// The peak of the RIR to a farther microphone must come later —
	// this ordering is what gives MUTE its lookahead.
	r := DefaultRoom()
	fs := 8000.0
	src := Point{0.5, 2, 1.5}
	near := Point{1.5, 2, 1.5}
	far := Point{4.0, 2, 1.5}
	hNear, err := r.ImpulseResponse(src, near, fs)
	if err != nil {
		t.Fatal(err)
	}
	hFar, err := r.ImpulseResponse(src, far, fs)
	if err != nil {
		t.Fatal(err)
	}
	first := func(h []float64) int {
		for i, v := range h {
			if math.Abs(v) > 1e-3 {
				return i
			}
		}
		return len(h)
	}
	if first(hNear) >= first(hFar) {
		t.Errorf("near mic onset %d should precede far mic onset %d", first(hNear), first(hFar))
	}
}
