package relaysel

import (
	"math/rand"
	"testing"
)

func corrSignals(n int) (fwd, local []float64) {
	rng := rand.New(rand.NewSource(5))
	fwd = make([]float64, n)
	for i := range fwd {
		fwd[i] = rng.NormFloat64()
	}
	// Local copy lagging the forwarded one by 17 samples.
	local = make([]float64, n)
	copy(local[17:], fwd[:n-17])
	return fwd, local
}

// TestCorrelateAllocFree pins the steady-state correlation round at zero
// allocations: plans and scratch live on the Correlator, the result reuses
// the caller's Correlation.
func TestCorrelateAllocFree(t *testing.T) {
	const n, maxLag = 2048, 512
	fwd, local := corrSignals(n)
	c, err := NewCorrelator(n)
	if err != nil {
		t.Fatal(err)
	}
	var out Correlation
	// Warm-up grows out's Lags/Values to capacity.
	if err := c.Correlate(&out, fwd, local, maxLag); err != nil {
		t.Fatal(err)
	}
	if out.LagSamples != 17 {
		t.Fatalf("peak at lag %d, want 17", out.LagSamples)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.Correlate(&out, fwd, local, maxLag); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Correlate allocated %.1f times per run, want 0", allocs)
	}
}

// TestSelectIntoAllocFree pins a full multi-relay selection round
// (SelectInto) at zero steady-state allocations.
func TestSelectIntoAllocFree(t *testing.T) {
	const n, maxLag = 1024, 255
	fwd, local := corrSignals(n)
	fwd2 := make([]float64, n)
	copy(fwd2, local)
	streams := [][]float64{fwd, fwd2}
	c, err := NewCorrelator(n)
	if err != nil {
		t.Fatal(err)
	}
	var sel Selection
	var scratch Correlation
	if err := c.SelectInto(&sel, &scratch, streams, local, maxLag, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	if sel.Best != 0 {
		t.Fatalf("selected relay %d, want 0", sel.Best)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.SelectInto(&sel, &scratch, streams, local, maxLag, 1, 0.05); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SelectInto allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkCorrelate(b *testing.B) {
	const n, maxLag = 2048, 512
	fwd, local := corrSignals(n)
	c, err := NewCorrelator(n)
	if err != nil {
		b.Fatal(err)
	}
	var out Correlation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Correlate(&out, fwd, local, maxLag); err != nil {
			b.Fatal(err)
		}
	}
}
