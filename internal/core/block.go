package core

import (
	"fmt"

	"mute/internal/dsp"
)

// BlockLANC is a partitioned frequency-domain (PBFDAF) implementation of
// LANC for long filters: the M-tap filter is split into P = ⌈M/B⌉
// partitions of B taps, each applied by overlap-save through a 2B-point
// real FFT, with per-bin normalized constrained updates. Long filters get
// FFT economics while adaptation lags by one block — the structure
// production ANC firmware uses once filters grow past a few hundred taps,
// without the single-big-FFT variant's latency of the whole filter length.
//
// The lookahead view: relative to the *forwarded* stream, LANC's
// non-causal taps are ordinary causal taps (the stream runs N samples
// ahead of the acoustic wavefront), so the block filter is a standard
// causal adaptive filter over the forwarded stream. Output sample j of a
// block depends only on forwarded samples up to j, so the block adds no
// signal delay; what it costs is adaptation lag — the last sample of each
// block is computed B−1 samples before its error is observable.
//
// Every window but the input pair is half zero or half discarded, and the
// transforms say so instead of padding: the error window [0…0, e] goes
// through ForwardTail, each gradient's constraint keeps only its first B
// taps (InverseHead) and re-transforms them with an implied zero tail
// (ForwardHead), and overlap-save reads only the second half of the
// output (InverseTail). The pruned transforms are bit-identical to the
// full ones on those windows, so only the cost changes.
//
// All state and scratch is preallocated: steady-state ProcessBlockInto
// calls allocate nothing.
type BlockLANC struct {
	m, b     int // filter taps, block size (the FFT size is 2B)
	np       int // partitions
	nonCausN int // declared non-causal taps (for LimitNonCausal)
	skip     int // leading (most-future) taps forced to zero

	plan   *dsp.RFFTPlan
	w      [][]complex128 // per-partition frequency-domain weights
	xSpec  [][]complex128 // ring: spectra of [prev, cur] x windows
	fxSpec [][]complex128 // ring: spectra of [prev, cur] fx windows
	head   int            // ring slot of the newest pushed block
	prevX  []float64      // previous raw x block
	prevFX []float64      // previous raw fx block
	fxConv *dsp.StreamConvolver
	pow    []float64 // per-bin fx power estimate
	mu     float64
	lambda float64
	primed bool

	// Scratch (struct-owned so steady state is allocation-free). The
	// weight transforms of Weights, SetWeights and LimitNonCausal also run
	// in grad and gTime, between blocks.
	win   []float64    // 2B [previous, new] input window
	spec  []complex128 // error spectrum
	acc   []complex128 // output spectrum accumulator
	grad  []complex128 // per-partition gradient spectrum
	gTime []float64    // constrained gradient's first B taps
	fxNew []float64    // current block's filtered-x samples
}

// DefaultBlockMu is the block canceller's normalized step unless a
// caller sets one. It is scaled per frequency bin, so its useful range
// differs from the sample-domain LANC step.
const DefaultBlockMu = 0.4

// BlockConfig configures a BlockLANC.
type BlockConfig struct {
	// FilterTaps is the total filter length M. graph.Build passes N + L,
	// one tap short of the sample-domain LANC's N + L + 1.
	FilterTaps int
	// BlockSize is B, the samples produced per call. Adaptation lag grows
	// with B.
	BlockSize int
	// Mu is the normalized step (0.1–1 typical; 0 = DefaultBlockMu). The
	// effective per-bin, per-partition step is Mu/P, so stability does not
	// depend on how finely the filter is partitioned and one value works
	// across block sizes.
	Mu float64
	// SecondaryPath is the ĥ_se estimate.
	SecondaryPath []float64
	// Lambda is the per-bin power smoothing factor (default 0.9).
	Lambda float64
	// NonCausalTaps declares how many leading taps are non-causal (funded
	// by lookahead). Zero disables LimitNonCausal accounting.
	NonCausalTaps int
}

// NewBlock creates a partitioned frequency-domain LANC.
func NewBlock(cfg BlockConfig) (*BlockLANC, error) {
	if cfg.FilterTaps <= 0 {
		return nil, fmt.Errorf("core: block filter taps %d must be positive", cfg.FilterTaps)
	}
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("core: block size %d must be positive", cfg.BlockSize)
	}
	if cfg.Mu == 0 {
		cfg.Mu = DefaultBlockMu
	}
	if cfg.Mu < 0 {
		return nil, fmt.Errorf("core: block mu %g must be positive", cfg.Mu)
	}
	if len(cfg.SecondaryPath) == 0 {
		return nil, fmt.Errorf("core: missing secondary path estimate")
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.9
	}
	if cfg.Lambda <= 0 || cfg.Lambda >= 1 {
		return nil, fmt.Errorf("core: block lambda %g outside (0, 1)", cfg.Lambda)
	}
	if cfg.NonCausalTaps < 0 || cfg.NonCausalTaps > cfg.FilterTaps {
		return nil, fmt.Errorf("core: non-causal taps %d outside [0, %d]", cfg.NonCausalTaps, cfg.FilterTaps)
	}
	b := dsp.NextPow2(cfg.BlockSize)
	if b != cfg.BlockSize {
		return nil, fmt.Errorf("core: block size %d must be a power of two", cfg.BlockSize)
	}
	f := 2 * b
	np := (cfg.FilterTaps + b - 1) / b
	plan := dsp.PlanRFFT(f)
	bl := &BlockLANC{
		m:        cfg.FilterTaps,
		b:        b,
		np:       np,
		nonCausN: cfg.NonCausalTaps,
		plan:     plan,
		prevX:    make([]float64, b),
		prevFX:   make([]float64, b),
		fxConv:   dsp.NewStreamConvolver(cfg.SecondaryPath),
		pow:      make([]float64, plan.Bins()),
		mu:       cfg.Mu,
		lambda:   cfg.Lambda,
		win:      make([]float64, f),
		spec:     make([]complex128, plan.Bins()),
		acc:      make([]complex128, plan.Bins()),
		grad:     make([]complex128, plan.Bins()),
		gTime:    make([]float64, b),
		fxNew:    make([]float64, b),
	}
	bl.w = make([][]complex128, np)
	bl.xSpec = make([][]complex128, np)
	bl.fxSpec = make([][]complex128, np)
	for p := 0; p < np; p++ {
		bl.w[p] = make([]complex128, plan.Bins())
		bl.xSpec[p] = make([]complex128, plan.Bins())
		bl.fxSpec[p] = make([]complex128, plan.Bins())
	}
	return bl, nil
}

// BlockSize returns B.
func (bl *BlockLANC) BlockSize() int { return bl.b }

// ring returns the spectrum ring slot for the block pushed `ago` blocks
// before the newest one.
func (bl *BlockLANC) ring(ago int) int {
	return (bl.head - ago%bl.np + bl.np) % bl.np
}

// partTaps returns how many of partition p's B tap slots are live filter
// taps (the last partition is short when B does not divide M).
func (bl *BlockLANC) partTaps(p int) int {
	n := bl.m - p*bl.b
	if n > bl.b {
		n = bl.b
	}
	return n
}

// ProcessBlockInto consumes the B newest forwarded samples and the B
// residual errors measured for the previous output block, and writes the
// next B anti-noise samples into out (len(out) == BlockSize()). Pass
// zeros for ePrev on the first call. Steady-state calls allocate nothing.
func (bl *BlockLANC) ProcessBlockInto(out, xNew, ePrev []float64) error {
	if len(xNew) != bl.b || len(ePrev) != bl.b {
		return fmt.Errorf("core: block size mismatch (got %d/%d, want %d)", len(xNew), len(ePrev), bl.b)
	}
	if len(out) != bl.b {
		return fmt.Errorf("core: output block length %d, want %d", len(out), bl.b)
	}

	// 1. Adapt with the previous block's errors against the fx spectra that
	//    produced it (skipped until one block has been emitted). The ring
	//    still holds exactly those spectra because the new block has not
	//    been pushed yet.
	if bl.primed {
		bl.adapt(ePrev)
	}

	// 2. Push the new block: filter x through ĥ_se, transform both
	//    [previous block, new block] windows, advance the ring.
	bl.fxConv.FilterInto(bl.fxNew, xNew)
	bl.head = (bl.head + 1) % bl.np
	copy(bl.win[:bl.b], bl.prevX)
	copy(bl.win[bl.b:], xNew)
	bl.plan.Forward(bl.xSpec[bl.head], bl.win)
	copy(bl.win[:bl.b], bl.prevFX)
	copy(bl.win[bl.b:], bl.fxNew)
	bl.plan.Forward(bl.fxSpec[bl.head], bl.win)
	copy(bl.prevX, xNew)
	copy(bl.prevFX, bl.fxNew)
	fx := bl.fxSpec[bl.head]
	for k, v := range fx {
		re, im := real(v), imag(v)
		bl.pow[k] = bl.lambda*bl.pow[k] + (1-bl.lambda)*(re*re+im*im)
	}

	// 3. Output block: sum the per-partition spectral products, inverse
	//    transform only the alias-free second half (overlap-save).
	acc := bl.acc
	for k := range acc {
		acc[k] = 0
	}
	for p := 0; p < bl.np; p++ {
		xs := bl.xSpec[bl.ring(p)]
		wp := bl.w[p]
		for k, w := range wp {
			acc[k] += xs[k] * w
		}
	}
	bl.plan.InverseTail(out, acc)
	bl.primed = true
	return nil
}

// adapt applies one constrained, per-bin-normalized gradient step to every
// partition from the previous block's residual errors.
func (bl *BlockLANC) adapt(ePrev []float64) {
	// E = RFFT([0…0, ePrev]): the errors sit in the second half, aligned
	// with the overlap-save output positions.
	bl.plan.ForwardTail(bl.spec, ePrev)
	// The P partitions take one gradient step each per block, and their
	// updates compound on the same residual; dividing the step by P keeps
	// the total projection — and hence the stability region — independent
	// of how finely the filter is partitioned, so one Mu works across
	// block sizes.
	mu := complex(bl.mu/float64(bl.np), 0)
	for p := 0; p < bl.np; p++ {
		// head still points at the previous block, so ring(p) is exactly
		// the fx spectrum partition p consumed when the previous output
		// block was produced.
		fx := bl.fxSpec[bl.ring(p)]
		grad := bl.grad
		for k, e := range bl.spec {
			f := fx[k]
			// conj(FX)·E / (pow + ε), written out to stay in registers.
			fr, fi := real(f), imag(f)
			er, ei := real(e), imag(e)
			norm := bl.pow[k] + 1e-6
			grad[k] = complex((fr*er+fi*ei)/norm, (fr*ei-fi*er)/norm)
		}
		// Gradient constraint: force the update to this partition's live
		// taps — drop the circular-aliasing tail (only the first B taps are
		// transformed back) and, on the last short partition, zero the tap
		// slots beyond M.
		bl.plan.InverseHead(bl.gTime, grad)
		live := bl.partTaps(p)
		for i := live; i < bl.b; i++ {
			bl.gTime[i] = 0
		}
		// Non-causal limiting: global taps below skip stay zero.
		if lo := bl.skip - p*bl.b; lo > 0 {
			if lo > live {
				lo = live
			}
			for i := 0; i < lo; i++ {
				bl.gTime[i] = 0
			}
		}
		// grad's spectrum was consumed by the inverse; reuse it for the
		// constrained gradient's spectrum.
		bl.plan.ForwardHead(grad, bl.gTime)
		wp := bl.w[p]
		for k, g := range grad {
			wp[k] -= mu * g
		}
	}
}

// Weights returns the current sample-domain filter taps (length M). The
// constrained updates keep every partition a causal B-tap filter, so the
// reconstruction is exact.
func (bl *BlockLANC) Weights() []float64 {
	out := make([]float64, bl.m)
	for p := 0; p < bl.np; p++ {
		copy(bl.grad, bl.w[p])
		bl.plan.InverseHead(bl.gTime, bl.grad)
		copy(out[p*bl.b:], bl.gTime[:bl.partTaps(p)])
	}
	return out
}

// SetWeights loads sample-domain filter taps (length M), transforming
// each B-tap partition into its frequency-domain representation — the
// inverse of Weights, used to warm-start a freshly built filter from a
// snapshot (fleet session handoff) or a cached profile. Taps disabled by
// LimitNonCausal are forced back to zero. It allocates nothing.
func (bl *BlockLANC) SetWeights(w []float64) error {
	if len(w) != bl.m {
		return fmt.Errorf("core: weight length %d != %d", len(w), bl.m)
	}
	g := bl.gTime
	for p := 0; p < bl.np; p++ {
		n := bl.partTaps(p)
		copy(g[:n], w[p*bl.b:p*bl.b+n])
		for i := n; i < bl.b; i++ {
			g[i] = 0
		}
		bl.plan.ForwardHead(bl.w[p], g)
	}
	if bl.skip > 0 {
		bl.LimitNonCausal(bl.nonCausN - bl.skip)
	}
	return nil
}

// ActiveNonCausal returns how many non-causal taps are currently live.
func (bl *BlockLANC) ActiveNonCausal() int { return bl.nonCausN - bl.skip }

// LimitNonCausal shrinks the live non-causal tap window to at most n future
// taps, zeroing the most-future taps beyond it, mirroring LANC's degraded
// rung; n ≥ N restores the full window. Zeroed taps also stop adapting.
// It allocates nothing: the transforms run in the gradient scratch.
func (bl *BlockLANC) LimitNonCausal(n int) {
	if n < 0 {
		n = 0
	}
	if n > bl.nonCausN {
		n = bl.nonCausN
	}
	bl.skip = bl.nonCausN - n
	// Re-establish w[:skip] == 0 across the affected partitions.
	spec, g := bl.grad, bl.gTime
	for p := 0; p*bl.b < bl.skip && p < bl.np; p++ {
		copy(spec, bl.w[p])
		bl.plan.InverseHead(g, spec)
		lo := bl.skip - p*bl.b
		if lo > bl.b {
			lo = bl.b
		}
		for i := 0; i < lo; i++ {
			g[i] = 0
		}
		bl.plan.ForwardHead(bl.w[p], g)
	}
}

// Reset clears all adaptation state.
func (bl *BlockLANC) Reset() {
	for p := 0; p < bl.np; p++ {
		for k := range bl.w[p] {
			bl.w[p][k] = 0
			bl.xSpec[p][k] = 0
			bl.fxSpec[p][k] = 0
		}
	}
	for k := range bl.pow {
		bl.pow[k] = 0
	}
	for i := range bl.prevX {
		bl.prevX[i] = 0
		bl.prevFX[i] = 0
	}
	bl.fxConv.Reset()
	bl.head = 0
	bl.primed = false
}
