package metrics

import (
	"errors"
	"math"
	"testing"
)

// nanSignal returns a plausible residual with NaN samples sprinkled in.
func nanSignal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 * math.Sin(float64(i)/7)
		if i%137 == 0 {
			x[i] = math.NaN()
		}
	}
	return x
}

// TestListenerRateNaN: NaN residuals must produce an explicit ErrNonFinite,
// never a NaN star rating — the silent failure mode this guards against.
func TestListenerRateNaN(t *testing.T) {
	l := NewListener(1)
	stars, err := l.Rate(nanSignal(4096), make([]float64, 4096), fs)
	if err == nil {
		t.Fatalf("NaN residual rated %v stars, want error", stars)
	}
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("error %v, want ErrNonFinite", err)
	}
	if stars != 0 {
		t.Errorf("error path returned stars=%v, want 0", stars)
	}

	// NaN reference is reported as the reference side.
	if _, err := l.Rate(make([]float64, 4096), nanSignal(4096), fs); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN reference: %v, want ErrNonFinite", err)
	}
}

// TestListenerRateFiniteUnaffected: the NaN guard must not disturb normal
// ratings (same seed, same stars as a fresh listener).
func TestListenerRateFiniteUnaffected(t *testing.T) {
	sig := make([]float64, 4096)
	ref := make([]float64, 4096)
	for i := range sig {
		sig[i] = 0.01 * math.Sin(float64(i)/5)
		ref[i] = 0.5 * math.Sin(float64(i)/5)
	}
	a, err := NewListener(3).Rate(sig, ref, fs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewListener(3).Rate(sig, ref, fs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a < 1 || a > 5 {
		t.Errorf("ratings %v vs %v, want identical in [1,5]", a, b)
	}
}
