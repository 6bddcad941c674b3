package core

import (
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
)

func TestNewBlockValidation(t *testing.T) {
	bad := []BlockConfig{
		{FilterTaps: 0, BlockSize: 16, Mu: 0.5, SecondaryPath: []float64{1}},
		{FilterTaps: 64, BlockSize: 0, Mu: 0.5, SecondaryPath: []float64{1}},
		{FilterTaps: 64, BlockSize: 16, Mu: -0.1, SecondaryPath: []float64{1}},
		{FilterTaps: 64, BlockSize: 16, Mu: 0.5, SecondaryPath: nil},
		{FilterTaps: 64, BlockSize: 16, Mu: 0.5, SecondaryPath: []float64{1}, Lambda: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewBlock(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	bl, err := NewBlock(BlockConfig{FilterTaps: 64, BlockSize: 16, Mu: 0.5, SecondaryPath: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if bl.BlockSize() != 16 {
		t.Error("block size accessor mismatch")
	}
	if bl, err = NewBlock(BlockConfig{FilterTaps: 64, BlockSize: 16, SecondaryPath: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if bl.mu != DefaultBlockMu {
		t.Errorf("zero Mu ran with %g, want DefaultBlockMu", bl.mu)
	}
}

func TestBlockProcessArity(t *testing.T) {
	bl, err := NewBlock(BlockConfig{FilterTaps: 32, BlockSize: 8, Mu: 0.5, SecondaryPath: testHse})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 8)
	if err := bl.ProcessBlockInto(out, make([]float64, 4), make([]float64, 8)); err == nil {
		t.Error("short input block should error")
	}
	if err := bl.ProcessBlockInto(out, make([]float64, 8), make([]float64, 4)); err == nil {
		t.Error("short error block should error")
	}
	if err := bl.ProcessBlockInto(out[:4], make([]float64, 8), make([]float64, 8)); err == nil {
		t.Error("short output block should error")
	}
}

// runBlockANC drives the acoustic loop block-wise. The forwarded stream
// runs `lookahead` samples ahead of the acoustic wavefront; the block
// filter reaches back FilterTaps samples into it.
func runBlockANC(t *testing.T, bl *BlockLANC, gen audio.Generator, lookahead int, hnr, hne, hse []float64, n int) float64 {
	t.Helper()
	B := bl.BlockSize()
	refCh := dsp.NewStreamConvolver(hnr)
	priCh := dsp.NewStreamConvolver(hne)
	secCh := dsp.NewStreamConvolver(hse)
	noise := audio.Render(gen, n+lookahead+B)
	ref := refCh.ProcessBlock(noise)
	var resPow, priPow float64
	ePrev := make([]float64, B)
	out := make([]float64, B)
	for t0 := 0; t0+B <= n; t0 += B {
		// Forwarded samples available at block start: capture indices up
		// to t0-1+lookahead... take the B newest: [t0+lookahead-B, t0+lookahead).
		xNew := ref[t0+lookahead-B : t0+lookahead]
		if err := bl.ProcessBlockInto(out, xNew, ePrev); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < B; i++ {
			d := priCh.Process(noise[t0+i])
			e := d + secCh.Process(out[i])
			ePrev[i] = e
			if t0+i >= 3*n/4 {
				resPow += e * e
				priPow += d * d
			}
		}
	}
	if priPow == 0 {
		return 0
	}
	return 10 * math.Log10(resPow/priPow)
}

func TestBlockLANCCancelsWhiteNoise(t *testing.T) {
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 48, BlockSize: 8, Mu: 0.4, SecondaryPath: testHse,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := audio.NewWhiteNoise(1, 8000, 0.5)
	db := runBlockANC(t, bl, gen, 24, testHnr, testHne, testHse, 64000)
	if db > -12 {
		t.Errorf("block LANC cancellation = %.1f dB, want < -12", db)
	}
}

func TestBlockLANCComparableToSampleLANC(t *testing.T) {
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 48, BlockSize: 8, Mu: 0.4, SecondaryPath: testHse,
	})
	if err != nil {
		t.Fatal(err)
	}
	blockDB := runBlockANC(t, bl, audio.NewWhiteNoise(1, 8000, 0.5), 24, testHnr, testHne, testHse, 64000)
	l := newTestLANC(t, 16)
	sampleDB := runANC(t, l, audio.NewWhiteNoise(1, 8000, 0.5), testHnr, testHne, testHse, 64000)
	// Both should deliver strong cancellation; block adaptation is
	// delayed by a block so it may trail, but not collapse.
	if blockDB > sampleDB+25 && blockDB > -12 {
		t.Errorf("block (%.1f dB) collapsed relative to sample LANC (%.1f dB)", blockDB, sampleDB)
	}
}

func TestBlockLANCWeightsAndReset(t *testing.T) {
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 32, BlockSize: 8, Mu: 0.4, SecondaryPath: testHse,
	})
	if err != nil {
		t.Fatal(err)
	}
	runBlockANC(t, bl, audio.NewWhiteNoise(2, 8000, 0.5), 16, testHnr, testHne, testHse, 8000)
	w := bl.Weights()
	if len(w) != 32 {
		t.Fatalf("weights length %d, want 32", len(w))
	}
	var energy float64
	for _, v := range w {
		energy += v * v
	}
	if energy == 0 {
		t.Error("adapted weights should be non-zero")
	}
	bl.Reset()
	for _, v := range bl.Weights() {
		if v != 0 {
			t.Fatal("reset should zero weights")
		}
	}
	out := make([]float64, 8)
	if err := bl.ProcessBlockInto(out, make([]float64, 8), make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("reset block filter should output zeros")
		}
	}
}

// BenchmarkBlockLANCPerSample measures throughput per sample for a long
// filter, for comparison with BenchmarkLANCStep (sample-domain).
func BenchmarkBlockLANCPerSample(b *testing.B) {
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 512, BlockSize: 64, Mu: 0.4, SecondaryPath: testHse,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 64)
	e := make([]float64, 64)
	out := make([]float64, 64)
	for i := range x {
		x[i] = 0.3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		if err := bl.ProcessBlockInto(out, x, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockLANCFleetShape times one block at the FDAF fleet
// session's shape (fleet.DefaultProfile with FDAFBlock 16 through
// graph.Build): B = 16, 16 non-causal plus EarCausalTaps causal taps
// (M = 24 in two 16-tap partitions, each on 32-point real FFTs), the
// default step and the demo ear's secondary path, on a noise reference.
func BenchmarkBlockLANCFleetShape(b *testing.B) {
	const blockSize = 16
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 16 + EarCausalTaps, BlockSize: blockSize,
		SecondaryPath: EarSecondaryPath(), NonCausalTaps: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := audio.Render(audio.NewWhiteNoise(8, 8000, 0.5), 4096)
	e := make([]float64, blockSize)
	out := make([]float64, blockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i * blockSize) & 4095
		xb := x[at : at+blockSize]
		for k, v := range xb {
			e[k] = 0.01*v + out[k]
		}
		if err := bl.ProcessBlockInto(out, xb, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleLANC512 is the sample-domain counterpart at the same
// filter length.
func BenchmarkSampleLANC512(b *testing.B) {
	l, err := New(Config{
		NonCausalTaps: 64, CausalTaps: 447, Mu: 0.2, Normalized: true,
		SecondaryPath: testHse,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(0.3, 0.05)
	}
}
