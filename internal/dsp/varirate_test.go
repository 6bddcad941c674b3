package dsp

import (
	"math"
	"testing"
)

func TestCubicHermiteEndpointsAndLinears(t *testing.T) {
	// frac == 0 returns y0 exactly — the passthrough identity.
	if got := CubicHermite(3, 7, 11, 13, 0); got != 7 {
		t.Errorf("CubicHermite(..., 0) = %g, want exactly 7", got)
	}
	// Catmull-Rom reproduces linear data exactly at any frac.
	line := func(k float64) float64 { return 0.25 + 1.5*k }
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.9} {
		got := CubicHermite(line(-1), line(0), line(1), line(2), frac)
		want := line(frac)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("linear data at frac %g: got %g, want %g", frac, got, want)
		}
	}
}

func TestCubicInterpAt(t *testing.T) {
	x := []float64{2, 4, 8, 16, 32}
	// Integer positions are exact reads.
	for i, v := range x {
		if got := CubicInterpAt(x, float64(i)); got != v {
			t.Errorf("integer position %d: got %g, want exactly %g", i, got, v)
		}
	}
	// Interior fractional positions match CubicHermite on the same taps.
	want := CubicHermite(x[0], x[1], x[2], x[3], 0.25)
	if got := CubicInterpAt(x, 1.25); got != want {
		t.Errorf("interior frac: got %g, want %g", got, want)
	}
	// Edge positions clamp their outside taps rather than reading out of
	// bounds.
	want = CubicHermite(x[0], x[0], x[1], x[2], 0.5)
	if got := CubicInterpAt(x, 0.5); got != want {
		t.Errorf("leading-edge frac: got %g, want clamped %g", got, want)
	}
	want = CubicHermite(x[2], x[3], x[4], x[4], 0.5)
	if got := CubicInterpAt(x, 3.5); got != want {
		t.Errorf("trailing-edge frac: got %g, want clamped %g", got, want)
	}
}

// TestVariRateUnityPassthrough pins the property the 0 ppm drift
// bit-identity rests on: at rate 1 the resampler is an exact, zero-latency
// passthrough of both samples and concealment flags.
func TestVariRateUnityPassthrough(t *testing.T) {
	r := NewVariRateResampler()
	if r.Rate() != 1 {
		t.Fatalf("initial rate %g, want 1", r.Rate())
	}
	for i := 0; i < 500; i++ {
		x := math.Sin(float64(i) * 0.7)
		real := i%7 != 3
		r.Push(x, real)
		if !r.Ready() {
			t.Fatalf("not ready after push %d at unity rate", i)
		}
		v, m, ok := r.Pop()
		if !ok || v != x || m != real {
			t.Fatalf("pop %d = (%g, %v, %v), want exactly (%g, %v, true)", i, v, m, ok, x, real)
		}
	}
	if p := r.Position(); p != 500 {
		t.Errorf("position %g after 500 unity pops, want exactly 500", p)
	}
}

// TestVariRateToneAccuracy resamples a low-frequency tone at 1±100 ppm and
// checks the output matches the analytically warped tone: cubic
// interpolation error at 250 Hz on an 8 kHz grid is far below -60 dB.
func TestVariRateToneAccuracy(t *testing.T) {
	for _, ppm := range []float64{100, -100} {
		rate := 1 + ppm*1e-6
		r := NewVariRateResampler()
		r.SetRate(rate)
		w := 2 * math.Pi * 250 / 8000
		var errPow, sigPow float64
		in := 0
		for i := 0; i < 4000; i++ {
			for !r.Ready() {
				r.Push(math.Sin(w*float64(in)), true)
				in++
			}
			v, _, ok := r.Pop()
			if !ok {
				t.Fatalf("pop %d failed", i)
			}
			want := math.Sin(w * float64(i) * rate)
			errPow += (v - want) * (v - want)
			sigPow += want * want
		}
		if db := DB((errPow + EpsilonPower) / (sigPow + EpsilonPower)); db > -60 {
			t.Errorf("ppm %+g: resampling error %.1f dB, want < -60 dB", ppm, db)
		}
	}
}

// TestVariRateRateChangeContinuity verifies SetRate mid-stream moves the
// read position continuously: no sample is skipped or repeated, the
// position just advances at the new rate from the next pop on.
func TestVariRateRateChangeContinuity(t *testing.T) {
	r := NewVariRateResampler()
	in := 0
	step := func(n int) {
		for i := 0; i < n; i++ {
			for !r.Ready() {
				r.Push(float64(in), true)
				in++
			}
			if _, _, ok := r.Pop(); !ok {
				t.Fatal("pop failed")
			}
		}
	}
	r.SetRate(1 + 200e-6)
	step(100)
	want := 100 * (1 + 200e-6)
	if p := r.Position(); math.Abs(p-want) > 1e-9 {
		t.Fatalf("position %g after 100 fast pops, want %g", p, want)
	}
	r.SetRate(1 - 200e-6)
	step(100)
	want += 100 * (1 - 200e-6)
	if p := r.Position(); math.Abs(p-want) > 1e-9 {
		t.Errorf("position %g after rate flip, want %g (continuity broken)", p, want)
	}
}

// TestVariRateMaskSpread checks a concealed input sample taints exactly
// the fractional outputs whose cubic kernel reads it, and no others.
func TestVariRateMaskSpread(t *testing.T) {
	r := NewVariRateResampler()
	r.SetRate(1 + 500e-6) // forces fractional positions immediately
	concealedAt := 20
	in := 0
	var tainted []int
	for i := 0; i < 60; i++ {
		for !r.Ready() {
			r.Push(1, in != concealedAt)
			in++
		}
		_, m, ok := r.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if !m {
			tainted = append(tainted, i)
		}
	}
	// The kernel spans [i-1, i+2] around the read position, so the
	// concealed input reaches at most 4 consecutive outputs, and at least
	// one (the output reading it as its nearest tap).
	if len(tainted) == 0 || len(tainted) > 4 {
		t.Fatalf("concealed input tainted %d outputs (%v), want 1..4", len(tainted), tainted)
	}
	for i := 1; i < len(tainted); i++ {
		if tainted[i] != tainted[i-1]+1 {
			t.Errorf("tainted outputs %v not consecutive", tainted)
		}
	}
}

func TestVariRatePendingAndCompact(t *testing.T) {
	r := NewVariRateResampler()
	r.SetRate(1 + VariRateMaxPPM*1e-6)
	for i := 0; i < 10; i++ {
		r.Push(float64(i), true)
	}
	if p := r.Pending(); p != 10 {
		t.Errorf("pending %d after 10 pushes, want 10", p)
	}
	// Long streaming must not grow the buffer without bound: compact keeps
	// it O(1) even over 100k samples.
	in := 10
	for i := 0; i < 100000; i++ {
		for !r.Ready() {
			r.Push(float64(in), true)
			in++
		}
		r.Pop()
	}
	if n := len(r.buf); n > 256 {
		t.Errorf("internal buffer holds %d samples after 100k pops, compact is not running", n)
	}
	if p := r.Pending(); p < 0 || p > 8 {
		t.Errorf("pending %d in steady state, want a small non-negative count", p)
	}
}

func TestVariRateClampResetAndNotReady(t *testing.T) {
	r := NewVariRateResampler()
	r.SetRate(2)
	if max := 1 + VariRateMaxPPM*1e-6; r.Rate() != max {
		t.Errorf("rate 2 clamped to %g, want %g", r.Rate(), max)
	}
	r.SetRate(0.5)
	if min := 1 - VariRateMaxPPM*1e-6; r.Rate() != min {
		t.Errorf("rate 0.5 clamped to %g, want %g", r.Rate(), min)
	}
	if _, _, ok := r.Pop(); ok {
		t.Error("Pop on an empty resampler reported ok")
	}
	r.Push(1, true)
	r.Pop()
	r.Reset()
	if r.Rate() != 1 || r.Position() != 0 || r.Pending() != 0 {
		t.Errorf("after Reset: %v, want unity rate at position 0", r)
	}
}

// TestVariRateNeedMatchesReadyLoop checks that Need(n) is exactly how many
// samples a push-while-not-Ready loop pushes over the next n Pops, and that
// pushing them up front leaves every output bit-identical.
func TestVariRateNeedMatchesReadyLoop(t *testing.T) {
	rnd := lcg(31)
	for _, ppm := range []float64{0, 100, -100, 1999, -2000, 37.5} {
		loop := NewVariRateResampler()
		batch := NewVariRateResampler()
		loop.SetRate(1 + ppm*1e-6)
		batch.SetRate(1 + ppm*1e-6)
		for run := 0; run < 300; run++ {
			n := 1 + run%41
			in := make([]float64, 0, n+4)
			var want []float64
			var wantReal []bool
			for k := 0; k < n; k++ {
				for !loop.Ready() {
					v := rnd()
					in = append(in, v)
					loop.Push(v, v > -0.45)
				}
				v, real, _ := loop.Pop()
				want = append(want, v)
				wantReal = append(wantReal, real)
			}
			if need := batch.Need(n); need != len(in) {
				t.Fatalf("ppm=%g run %d: Need(%d) = %d, the Ready loop pushed %d", ppm, run, n, need, len(in))
			}
			for _, v := range in {
				batch.Push(v, v > -0.45)
			}
			for k := 0; k < n; k++ {
				if v, real, _ := batch.Pop(); math.Float64bits(v) != math.Float64bits(want[k]) || real != wantReal[k] {
					t.Fatalf("ppm=%g run %d output %d: %v/%v, want %v/%v", ppm, run, k, v, real, want[k], wantReal[k])
				}
			}
		}
	}
}

// Pending returns how many pushed input samples lie at or beyond the
// current read position (buffered input not yet turned into output).
func (r *VariRateResampler) Pending() int {
	// pos is invariantly >= 0, so integer truncation is floor.
	i := uint64(r.pos)
	if r.head <= i {
		return 0
	}
	return int(r.head - i)
}

// Reset returns the resampler to its initial state at unity rate.
func (r *VariRateResampler) Reset() {
	r.buf = r.buf[:0]
	r.real = r.real[:0]
	r.base, r.head = 0, 0
	r.pos = 0
	r.rate = 1
}
