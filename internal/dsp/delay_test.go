package dsp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDelayLineBasic(t *testing.T) {
	d, err := NewDelayLine(3)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{1, 2, 3, 4, 5, 6}
	want := []float64{0, 0, 0, 1, 2, 3}
	for i, x := range in {
		if got := d.Process(x); got != want[i] {
			t.Errorf("sample %d: got %g, want %g", i, got, want[i])
		}
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestDelayLineZero(t *testing.T) {
	d, err := NewDelayLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Process(7); got != 7 {
		t.Errorf("zero delay should pass through, got %g", got)
	}
}

func TestDelayLineNegativeErrors(t *testing.T) {
	if _, err := NewDelayLine(-1); err == nil {
		t.Error("negative delay should error")
	}
}

func TestDelayLineReset(t *testing.T) {
	d, err := NewDelayLine(2)
	if err != nil {
		t.Fatal(err)
	}
	d.Process(5)
	d.Process(6)
	d.Reset()
	if got := d.Process(0); got != 0 {
		t.Errorf("after Reset got %g, want 0", got)
	}
}

func TestFractionalDelayInteger(t *testing.T) {
	// An integer delay through the fractional designer should still delay
	// a smooth signal by that many samples.
	taps, err := FractionalDelayFIR(5)
	if err != nil {
		t.Fatal(err)
	}
	n := 200
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.02 * float64(i))
	}
	y := ConvolveSame(x, taps)
	// Compare y[t] with x[t-5] away from edges.
	for i := 40; i < n-10; i++ {
		if math.Abs(y[i]-x[i-5]) > 1e-3 {
			t.Fatalf("sample %d: y=%g, x[t-5]=%g", i, y[i], x[i-5])
		}
	}
}

func TestFractionalDelayHalfSample(t *testing.T) {
	// A 10.5-sample delay of a low-frequency sinusoid equals the
	// analytically shifted sinusoid.
	d := 10.5
	taps, err := FractionalDelayFIR(d)
	if err != nil {
		t.Fatal(err)
	}
	n := 300
	f := 0.01 // cycles/sample, far below Nyquist
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i))
	}
	y := ConvolveSame(x, taps)
	for i := 60; i < n-20; i++ {
		want := math.Sin(2 * math.Pi * f * (float64(i) - d))
		if math.Abs(y[i]-want) > 5e-3 {
			t.Fatalf("sample %d: y=%g, want %g", i, y[i], want)
		}
	}
}

func TestFractionalDelayNegativeErrors(t *testing.T) {
	if _, err := FractionalDelayFIR(-0.5); err == nil {
		t.Error("negative delay should error")
	}
}

func TestFractionalDelaySubSample(t *testing.T) {
	taps, err := FractionalDelayFIR(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != 4 {
		t.Fatalf("sub-sample delay should use the 4-tap kernel, got %d taps", len(taps))
	}
	var sum float64
	for _, v := range taps {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Lagrange taps should sum to 1, got %g", sum)
	}
}

func TestLookaheadBufferSemantics(t *testing.T) {
	lb, err := NewLookaheadBuffer(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Push 1..6. After k pushes, the newest sample sits at offset +3.
	for i := 1; i <= 6; i++ {
		lb.Push(float64(i))
	}
	// Newest (6) is at +3; current should be 6-3 = 3.
	if got := lb.At(0); got != 3 {
		t.Errorf("At(0) = %g, want 3", got)
	}
	if got := lb.At(3); got != 6 {
		t.Errorf("At(3) = %g, want 6", got)
	}
	if got := lb.At(-2); got != 1 {
		t.Errorf("At(-2) = %g, want 1", got)
	}
	// Out-of-window offsets are zero.
	if lb.At(4) != 0 || lb.At(-3) != 0 {
		t.Error("out-of-window offsets should be 0")
	}
}

func TestLookaheadBufferPriming(t *testing.T) {
	// The current sample stays the zero fill until lookahead+1 pushes.
	lb, _ := NewLookaheadBuffer(0, 5)
	for i := 0; i < 5; i++ {
		lb.Push(1)
		if lb.At(0) != 0 {
			t.Fatalf("current sample after %d pushes = %g, want the zero fill", i+1, lb.At(0))
		}
	}
	lb.Push(1)
	if lb.At(0) != 1 {
		t.Error("current sample should be real after lookahead+1 pushes")
	}
}

func TestLookaheadBufferReset(t *testing.T) {
	lb, _ := NewLookaheadBuffer(1, 1)
	lb.Push(9)
	lb.Push(9)
	lb.Reset()
	if lb.At(0) != 0 || lb.At(-1) != 0 || lb.At(1) != 0 {
		t.Error("Reset should clear contents")
	}
}

func TestLookaheadBufferWindow(t *testing.T) {
	lb, _ := NewLookaheadBuffer(2, 2)
	for i := 1; i <= 5; i++ {
		lb.Push(float64(i))
	}
	got := lb.View(-2, 2)
	want := []float64{1, 2, 3, 4, 5}
	if !floatsClose(got, want, 0) {
		t.Errorf("View(-2, 2) = %v, want %v", got, want)
	}
}

// TestLookaheadBufferViewOutsidePanics checks that View refuses every
// offset range that leaves the window, with the window in the message.
func TestLookaheadBufferViewOutsidePanics(t *testing.T) {
	lb, _ := NewLookaheadBuffer(2, 2)
	for _, r := range [][2]int{{-3, 0}, {0, 3}, {1, 0}, {-3, 3}, {3, 3}, {-4, -3}} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok {
					t.Errorf("View(%d, %d) did not panic with an error", r[0], r[1])
					return
				}
				want := fmt.Sprintf("dsp: view [%d, %d] outside buffer window [-2, 2]", r[0], r[1])
				if err.Error() != want {
					t.Errorf("View(%d, %d) panic %q, want %q", r[0], r[1], err, want)
				}
			}()
			lb.View(r[0], r[1])
		}()
	}
}

func TestLookaheadBufferErrors(t *testing.T) {
	if _, err := NewLookaheadBuffer(-1, 0); err == nil {
		t.Error("negative history should error")
	}
	if _, err := NewLookaheadBuffer(0, -1); err == nil {
		t.Error("negative lookahead should error")
	}
}

func TestLookaheadBufferDelayEquivalenceProperty(t *testing.T) {
	// Property: At(k) after n pushes equals the (n-1-(L-k))-th pushed value,
	// i.e. the buffer is exactly a delay of L-k samples from the newest.
	f := func(seed int64) bool {
		vals := randFloats(50, seed)
		lb, _ := NewLookaheadBuffer(4, 6)
		for _, v := range vals {
			lb.Push(v)
		}
		for k := -4; k <= 6; k++ {
			idx := len(vals) - 1 - (6 - k)
			if idx < 0 {
				continue
			}
			if lb.At(k) != vals[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
