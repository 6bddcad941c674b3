package sim

import (
	"errors"
	"math"
	"sync"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// TestBlockFDAFPathCancels runs the end-to-end engine on the partitioned
// frequency-domain path and pins its cancellation against the time-domain
// default — the sim-level leg of the equivalence suite (the core-level leg
// pins the filters head to head on shared channels).
func TestBlockFDAFPathCancels(t *testing.T) {
	gen := func() audio.Generator { return audio.NewWhiteNoise(1, 8000, 0.5) }

	p := DefaultParams(DefaultScene(gen()))
	p.Duration = 4
	rTD, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	tdDB, err := rTD.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}

	p = DefaultParams(DefaultScene(gen()))
	p.Duration = 4
	p.BlockFDAF = true
	reg := telemetry.NewRegistry()
	p.Telemetry = reg
	rFD, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	fdDB, err := rFD.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}

	if tdDB > -6 {
		t.Fatalf("time-domain baseline only reached %.1f dB", tdDB)
	}
	if fdDB > -5 {
		t.Errorf("FDAF path reached %.1f dB, want < -5", fdDB)
	}
	// Equivalence band: block adaptation trails the per-sample filter but
	// must stay in its neighborhood.
	if diff := fdDB - tdDB; diff > 10 || diff < -10 {
		t.Errorf("FDAF %.1f dB vs time-domain %.1f dB: outside the ±10 dB band", fdDB, tdDB)
	}

	// The per-block timing histogram must have one observation per block.
	h := reg.Histogram("lanc.block_ns", telemetry.HistogramOpts{Lo: 1e3, Ratio: 2, Buckets: 20})
	wantBlocks := uint64((len(rFD.On) + 31) / 32)
	if got := h.Snapshot().Count; got != wantBlocks {
		t.Errorf("lanc.block_ns observed %d blocks, want %d", got, wantBlocks)
	}

	// The block costs the taps no delay: no block latency is debited, and
	// both kinds plan the same non-causal taps and reference alignment.
	spends := func(r *Result) map[string]int {
		m := map[string]int{}
		for _, e := range r.BudgetSpend.Entries {
			m[e.Stage] = e.Samples
		}
		return m
	}
	td, fd := spends(rTD), spends(rFD)
	if _, ok := fd["fdaf.block_latency"]; ok {
		t.Errorf("budget itemization debits fdaf.block_latency: %v", fd)
	}
	if fd["align"] != td["align"] || fd["lanc.noncausal_taps"] != td["lanc.noncausal_taps"] {
		t.Errorf("FDAF budget %v, time-domain budget %v: want the same taps and alignment", fd, td)
	}
}

// TestBlockFDAFRejectsUnsupportedCombos pins the compatibility contract
// through Run: BlockFDAF only selects the canceller kind, the transport
// binds as for LANC, and graph.Build refuses each stage the block
// canceller lacks with graph.ErrUnsupported. A loss-blind lossy transport
// is no such stage: the block canceller runs over the concealed reference.
func TestBlockFDAFRejectsUnsupportedCombos(t *testing.T) {
	gen := func() audio.Generator { return audio.NewWhiteNoise(1, 8000, 0.3) }
	for name, mod := range map[string]func(*Params){
		"supervise":  func(p *Params) { p.Supervise = true },
		"profiling":  func(p *Params) { p.Profiling = true },
		"loss-aware": func(p *Params) { p.LossTransport = &LossTransport{FrameSamples: 40, LossAware: true} },
		"skew":       func(p *Params) { p.ClockSkewPPM = 100 },
		"drift":      func(p *Params) { p.LossTransport = &LossTransport{FrameSamples: 40, DriftCorrect: true} },
		"loop":       func(p *Params) { p.ControlLoopDelaySamples = 8 },
	} {
		p := DefaultParams(DefaultScene(gen()))
		p.Duration = 0.1
		p.BlockFDAF = true
		mod(&p)
		if _, err := Run(p, MUTEHollow); !errors.Is(err, graph.ErrUnsupported) {
			t.Errorf("BlockFDAF + %s: err = %v, want graph.ErrUnsupported", name, err)
		}
	}
	// Non-power-of-two block sizes are rejected by the core filter.
	p := DefaultParams(DefaultScene(gen()))
	p.Duration = 0.1
	p.BlockFDAF = true
	p.BlockSize = 12
	if _, err := Run(p, MUTEHollow); err == nil {
		t.Error("BlockFDAF with non-power-of-two block size should be rejected")
	}

	p = DefaultParams(DefaultScene(gen()))
	p.Duration = 2
	p.BlockFDAF = true
	p.LossTransport = &LossTransport{
		Link:         stream.LossParams{Seed: 42, Loss: 0.10, MeanBurst: 4},
		FrameSamples: 40,
		PrimeFrames:  1,
	}
	r, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatalf("BlockFDAF over a loss-blind lossy transport: %v", err)
	}
	if r.Transport == nil || r.Transport.Link.Dropped == 0 {
		t.Fatalf("transport stats %+v: want a lossy link", r.Transport)
	}
	for i, v := range r.Residual {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("residual[%d] = %v", i, v)
		}
	}
	db, err := r.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if db > 0.5 {
		t.Errorf("BlockFDAF over a lossy transport: %.2f dB, want no worse than passthrough + 0.5 dB", db)
	}
}

// TestRenderCacheBitIdentical pins the cache contract: a hit returns the
// exact bits of the original render, and distinct inputs miss.
func TestRenderCacheBitIdentical(t *testing.T) {
	c := newRenderCache(4)
	wave := audio.Render(audio.NewWhiteNoise(7, 8000, 0.5), 4096)
	ir := []float64{0.9, 0.4, -0.2, 0.05}

	want := dsp.NewStreamConvolver(ir).ProcessBlock(wave)
	got1 := c.render(wave, ir)
	got2 := c.render(wave, ir)
	if &got1[0] != &got2[0] {
		t.Error("second render should return the cached slice")
	}
	for i := range want {
		if got1[i] != want[i] {
			t.Fatalf("cached render diverges at %d: %g != %g", i, got1[i], want[i])
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A different IR is a different key.
	c.render(wave, []float64{1})
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats after distinct IR = %d/%d, want 1/2", hits, misses)
	}
}

// TestRenderCacheEviction bounds the cache: pushing past capacity evicts
// the oldest entry, which then re-renders (bit-identically) on next use.
func TestRenderCacheEviction(t *testing.T) {
	c := newRenderCache(2)
	wave := audio.Render(audio.NewWhiteNoise(3, 8000, 0.5), 512)
	irs := [][]float64{{1}, {0.5, 0.5}, {0.2, 0.3, 0.4}}
	var first []float64
	for i, ir := range irs {
		out := c.render(wave, ir)
		if i == 0 {
			first = append([]float64(nil), out...)
		}
	}
	// irs[0] was evicted by irs[2]; re-rendering must miss and match bits.
	_, missesBefore := c.Stats()
	out := c.render(wave, irs[0])
	_, missesAfter := c.Stats()
	if missesAfter != missesBefore+1 {
		t.Error("evicted entry should re-render")
	}
	for i := range first {
		if out[i] != first[i] {
			t.Fatalf("re-render diverges at %d", i)
		}
	}
}

// TestRenderCacheConcurrent exercises the scheme fan-out shape: many
// goroutines rendering the same pair must all see identical bits.
func TestRenderCacheConcurrent(t *testing.T) {
	c := newRenderCache(4)
	wave := audio.Render(audio.NewWhiteNoise(5, 8000, 0.5), 2048)
	ir := []float64{0.8, 0.3, 0.1}
	want := dsp.NewStreamConvolver(ir).ProcessBlock(wave)

	var wg sync.WaitGroup
	outs := make([][]float64, 8)
	for g := range outs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = c.render(wave, ir)
		}(g)
	}
	wg.Wait()
	for g, out := range outs {
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("goroutine %d render diverges at %d", g, i)
			}
		}
	}
}
