package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullWindowBlock drives a BlockLANC's state through the full-window
// transforms the canceller used before the pruned ones: every window is
// padded to 2B samples and every inverse produces all 2B. Its methods
// repeat that adapt/ProcessBlockInto/SetWeights/LimitNonCausal/Weights
// operation for operation, as the reference that pins the pruned
// canceller bit for bit.
type fullWindowBlock struct {
	bl    *BlockLANC
	win   []float64 // 2B window
	gTime []float64 // 2B time response
}

func newFullWindowBlock(bl *BlockLANC) *fullWindowBlock {
	return &fullWindowBlock{bl: bl, win: make([]float64, 2*bl.b), gTime: make([]float64, 2*bl.b)}
}

func (r *fullWindowBlock) processBlockInto(out, xNew, ePrev []float64) {
	bl := r.bl
	if bl.primed {
		r.adapt(ePrev)
	}
	for i, x := range xNew {
		bl.fxNew[i] = bl.fxConv.Process(x)
	}
	bl.head = (bl.head + 1) % bl.np
	copy(r.win[:bl.b], bl.prevX)
	copy(r.win[bl.b:], xNew)
	bl.plan.Forward(bl.xSpec[bl.head], r.win)
	copy(r.win[:bl.b], bl.prevFX)
	copy(r.win[bl.b:], bl.fxNew)
	bl.plan.Forward(bl.fxSpec[bl.head], r.win)
	copy(bl.prevX, xNew)
	copy(bl.prevFX, bl.fxNew)
	fx := bl.fxSpec[bl.head]
	for k, v := range fx {
		re, im := real(v), imag(v)
		bl.pow[k] = bl.lambda*bl.pow[k] + (1-bl.lambda)*(re*re+im*im)
	}
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
	bl.plan.Inverse(r.gTime, acc)
	copy(out, r.gTime[bl.b:])
	bl.primed = true
}

func (r *fullWindowBlock) adapt(ePrev []float64) {
	bl := r.bl
	f := 2 * bl.b
	for i := 0; i < bl.b; i++ {
		r.win[i] = 0
	}
	copy(r.win[bl.b:], ePrev)
	bl.plan.Forward(bl.spec, r.win)
	mu := complex(bl.mu/float64(bl.np), 0)
	for p := 0; p < bl.np; p++ {
		fx := bl.fxSpec[bl.ring(p)]
		grad := bl.grad
		for k, e := range bl.spec {
			f := fx[k]
			fr, fi := real(f), imag(f)
			er, ei := real(e), imag(e)
			norm := bl.pow[k] + 1e-6
			grad[k] = complex((fr*er+fi*ei)/norm, (fr*ei-fi*er)/norm)
		}
		bl.plan.Inverse(r.gTime, grad)
		live := bl.partTaps(p)
		for i := live; i < f; i++ {
			r.gTime[i] = 0
		}
		if lo := bl.skip - p*bl.b; lo > 0 {
			if lo > live {
				lo = live
			}
			for i := 0; i < lo; i++ {
				r.gTime[i] = 0
			}
		}
		bl.plan.Forward(bl.grad, r.gTime)
		wp := bl.w[p]
		for k, g := range bl.grad {
			wp[k] -= mu * g
		}
	}
}

func (r *fullWindowBlock) setWeights(w []float64) {
	bl := r.bl
	f := 2 * bl.b
	g := make([]float64, f)
	for p := 0; p < bl.np; p++ {
		n := bl.partTaps(p)
		copy(g[:n], w[p*bl.b:p*bl.b+n])
		for i := n; i < f; i++ {
			g[i] = 0
		}
		bl.plan.Forward(bl.w[p], g)
	}
	if bl.skip > 0 {
		r.limitNonCausal(bl.nonCausN - bl.skip)
	}
}

func (r *fullWindowBlock) limitNonCausal(n int) {
	bl := r.bl
	f := 2 * bl.b
	if n < 0 {
		n = 0
	}
	if n > bl.nonCausN {
		n = bl.nonCausN
	}
	bl.skip = bl.nonCausN - n
	spec := make([]complex128, bl.plan.Bins())
	g := make([]float64, f)
	for p := 0; p*bl.b < bl.skip && p < bl.np; p++ {
		copy(spec, bl.w[p])
		bl.plan.Inverse(g, spec)
		lo := bl.skip - p*bl.b
		if lo > bl.b {
			lo = bl.b
		}
		for i := 0; i < lo; i++ {
			g[i] = 0
		}
		for i := bl.b; i < f; i++ {
			g[i] = 0
		}
		bl.plan.Forward(bl.w[p], g)
	}
}

// weights is the reference Weights: a full inverse per partition.
func (r *fullWindowBlock) weights() []float64 {
	bl := r.bl
	out := make([]float64, bl.m)
	spec := make([]complex128, bl.plan.Bins())
	g := make([]float64, 2*bl.b)
	for p := 0; p < bl.np; p++ {
		copy(spec, bl.w[p])
		bl.plan.Inverse(g, spec)
		copy(out[p*bl.b:], g[:bl.partTaps(p)])
	}
	return out
}

func sameFloatBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("index %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestBlockPrunedBitIdenticalToFullWindow runs the pruned canceller and the
// full-window reference side by side on the same closed loop and requires
// every output sample, every frequency-domain weight and Weights() to
// match bit for bit — across block sizes, a tap count B does not divide,
// a mid-run LimitNonCausal (shrink, then restore) and a SetWeights warm
// start.
func TestBlockPrunedBitIdenticalToFullWindow(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, taps := range []int{4 * b, 3*b + 3} {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("B=%d/M=%d/warm=%v", b, taps, warm)
				t.Run(name, func(t *testing.T) { checkBlockAgainstFullWindow(t, b, taps, warm) })
			}
		}
	}
}

func checkBlockAgainstFullWindow(t *testing.T, b, taps int, warm bool) {
	nonCausal := 16
	if nonCausal > taps {
		nonCausal = taps
	}
	cfg := BlockConfig{FilterTaps: taps, BlockSize: b, Mu: 0.5, SecondaryPath: testHse, NonCausalTaps: nonCausal}
	pruned, err := NewBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newFullWindowBlock(full)
	rng := rand.New(rand.NewSource(int64(97*b + taps)))
	if warm {
		w := make([]float64, taps)
		for i := range w {
			w[i] = 0.1 * rng.NormFloat64()
		}
		// Limit first so the warm start also exercises SetWeights'
		// re-application of the non-causal limit.
		pruned.LimitNonCausal(nonCausal / 2)
		ref.limitNonCausal(nonCausal / 2)
		if err := pruned.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		ref.setWeights(w)
	}

	// A fixed plant turns each output block into the next block's errors:
	// e = d + 0.9·y with d a smoothed copy of x, so the filter adapts.
	blocks := 2048 / b
	if blocks > 160 {
		blocks = 160
	}
	x := make([]float64, b)
	outP, outF := make([]float64, b), make([]float64, b)
	eP, eF := make([]float64, b), make([]float64, b)
	d := 0.0
	for blk := 0; blk < blocks; blk++ {
		switch blk {
		case blocks / 3:
			pruned.LimitNonCausal(nonCausal / 4)
			ref.limitNonCausal(nonCausal / 4)
		case 2 * blocks / 3:
			pruned.LimitNonCausal(nonCausal)
			ref.limitNonCausal(nonCausal)
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if err := pruned.ProcessBlockInto(outP, x, eP); err != nil {
			t.Fatal(err)
		}
		ref.processBlockInto(outF, x, eF)
		if err := sameFloatBits(outP, outF); err != nil {
			t.Fatalf("block %d output: %v", blk, err)
		}
		for i := range x {
			d = 0.7*d + 0.3*x[i]
			eP[i] = d + 0.9*outP[i]
			eF[i] = d + 0.9*outF[i]
		}
		for p := range pruned.w {
			for k := range pruned.w[p] {
				a, c := pruned.w[p][k], full.w[p][k]
				if math.Float64bits(real(a)) != math.Float64bits(real(c)) ||
					math.Float64bits(imag(a)) != math.Float64bits(imag(c)) {
					t.Fatalf("block %d partition %d bin %d weight: %v vs %v", blk, p, k, a, c)
				}
			}
		}
	}
	if err := sameFloatBits(pruned.Weights(), ref.weights()); err != nil {
		t.Fatalf("Weights(): %v", err)
	}
	// The comparison only means something if the loop adapted and stayed
	// finite.
	energy := 0.0
	for _, v := range pruned.Weights() {
		energy += v * v
	}
	if energy == 0 || math.IsNaN(energy) || math.IsInf(energy, 0) {
		t.Fatalf("harness: weight energy %v after %d blocks", energy, blocks)
	}
}
