package core

import (
	"math"
	"testing"
)

// rolledLANC is the oracle for LANC's tap kernels: Algorithm 1 written as
// plain loops over the taps in tap order, h[i] = h_AF(i−N), every sum
// running from i = 0 up, and the residual clip as the square-root formula.
// It reads its samples one tap at a time through LookaheadBuffer.At. The
// signal bookkeeping that the kernels do not own — the reference and
// filtered-x buffers, the NLMS window powers and the loss guards — comes
// from a second LANC, whose own weights the oracle never reads.
type rolledLANC struct {
	l      *LANC
	h      []float64
	errVar float64
}

func newRolledLANC(cfg Config) (*rolledLANC, error) {
	l, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &rolledLANC{l: l, h: make([]float64, len(l.w))}, nil
}

// clip is the Huber clip as first written, with a root on every sample.
func (r *rolledLANC) clip(e float64) float64 {
	r.errVar = 0.998*r.errVar + 0.002*e*e
	if limit := 3 * math.Sqrt(r.errVar); limit > 0 && (e > limit || e < -limit) {
		if e > 0 {
			return limit
		}
		return -limit
	}
	return e
}

// update applies the gradient step to the active taps, tap i reading the
// filtered-x sample at offset N−i−lag.
func (r *rolledLANC) update(muE float64, lag int) {
	cfg := r.l.cfg
	for i := r.l.skip; i < len(r.h); i++ {
		fx := r.l.fxBuf.At(cfg.NonCausalTaps - i - lag)
		if cfg.Leak > 0 {
			r.h[i] = r.h[i]*(1-cfg.Leak*cfg.Mu) - muE*fx
		} else {
			r.h[i] -= muE * fx
		}
	}
}

func (r *rolledLANC) antiNoise() float64 {
	var a float64
	for i, w := range r.h {
		a += w * r.l.xBuf.At(r.l.cfg.NonCausalTaps-i)
	}
	return a
}

func (r *rolledLANC) adapt(e float64) {
	gain := r.l.lossGain()
	if gain == 0 {
		return
	}
	e = r.clip(e)
	r.update(r.l.effectiveMu()*e*gain, r.l.cfg.ErrorDelay)
}

// step is the fused StepMasked: it sums only the active taps as it updates
// them, and the whole window when adaptation is frozen.
func (r *rolledLANC) step(x, ePrev float64, real bool) float64 {
	gain := r.l.lossGain()
	if gain == 0 {
		r.l.noteMask(real)
		r.l.pushSignal(x)
		return r.antiNoise()
	}
	e := r.clip(ePrev)
	muE := r.l.effectiveMu() * e * gain
	r.l.noteMask(real)
	r.l.pushSignal(x)
	r.update(muE, r.l.cfg.ErrorDelay+1)
	var a float64
	for i := r.l.skip; i < len(r.h); i++ {
		a += r.h[i] * r.l.xBuf.At(r.l.cfg.NonCausalTaps-i)
	}
	return a
}

func (r *rolledLANC) limit(n int) {
	r.l.LimitNonCausal(n)
	clear(r.h[:r.l.skip])
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzLANCStepMatchesRolled holds the LANC's unrolled window-order kernels
// to the rolled tap-order oracle bit for bit: every output and, after
// every operation, Weights(). The shape bytes pick N, L, ErrorDelay, leak,
// loss awareness and NLMS; each script byte picks one operation — a fused
// StepMasked, an Adapt/PushMasked/AntiNoise triple, a LimitNonCausal, a
// HoldAdaptation or a Prefilter of the next samples (the oracle always
// filters per sample) — plus its mask and an occasional impulsive error
// that the clip must catch.
func FuzzLANCStepMatchesRolled(f *testing.F) {
	f.Add(uint8(16), uint8(8), uint8(0), uint8(7), uint64(1), []byte{0, 1, 2, 3, 8, 16, 0xf7, 0x36, 0, 0, 0x0f, 5, 13, 0xe0, 0})
	f.Add(uint8(16), uint8(8), uint8(1), uint8(4), uint64(5), []byte{0, 0, 0, 0, 0, 0, 5, 5, 0xe0, 0, 0})
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint64(2), []byte{0, 5, 0, 5})
	f.Add(uint8(3), uint8(0), uint8(2), uint8(5), uint64(3), []byte{0x1e, 0, 0x06, 0, 0x1f, 0, 0, 0})
	f.Add(uint8(39), uint8(39), uint8(5), uint8(3), uint64(4), []byte{0x47, 0, 0xff, 0x0d, 0, 0x3e, 0, 0x87, 0x10})
	f.Fuzz(func(t *testing.T, n, c, d, flags uint8, seed uint64, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		cfg := Config{
			NonCausalTaps: int(n % 40),
			CausalTaps:    int(c % 40),
			ErrorDelay:    int(d % 6),
			Mu:            0.002,
			SecondaryPath: testHse,
			LossAware:     flags&2 != 0,
			Normalized:    flags&4 != 0,
		}
		if cfg.NonCausalTaps+cfg.CausalTaps == 0 {
			cfg.CausalTaps = 1
		}
		if flags&1 != 0 {
			cfg.Leak = 0.0005
		}
		if cfg.Normalized {
			cfg.Mu = 0.3
		}
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRolledLANC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The reference stream is fixed up front so Prefilter can announce
		// samples before they are pushed.
		xs := make([]float64, len(script)+16)
		s := seed
		for i := range xs {
			s = s*6364136223846793005 + 1442695040888963407
			xs[i] = float64(int64(s)>>11) / (1 << 52)
		}
		pos, announced := 0, 0
		var out float64
		for k, b := range script {
			real := b&0x18 != 0
			var a, want float64
			switch op := b & 7; {
			case op <= 5:
				x := xs[pos]
				pos++
				e := 0.6*x + 0.4*out
				if b>>5 == 7 {
					e *= 1e3
				}
				if op == 5 {
					l.Adapt(e)
					l.PushMasked(x, real)
					a = l.AntiNoise()
					ref.adapt(e)
					ref.l.PushMasked(x, real)
					want = ref.antiNoise()
				} else {
					a = l.StepMasked(x, e, real)
					want = ref.step(x, e, real)
				}
				if !sameBits(a, want) {
					t.Fatalf("op %d (%#x): output %v (%#x), rolled %v (%#x)", k, b,
						a, math.Float64bits(a), want, math.Float64bits(want))
				}
				out = a
			case op == 6:
				m := int(b>>3) % (cfg.NonCausalTaps + 2)
				l.LimitNonCausal(m)
				ref.limit(m)
			case b&8 == 0:
				hold, ramp := int(b>>4), int(b>>4)*3-6
				l.HoldAdaptation(hold, ramp)
				ref.l.HoldAdaptation(hold, ramp)
			default:
				announced = max(announced, pos)
				m := min(int(b>>4)+1, len(xs)-announced)
				l.Prefilter(xs[announced : announced+m])
				announced += m
			}
			for i, w := range l.Weights() {
				if !sameBits(w, ref.h[i]) {
					t.Fatalf("op %d (%#x): tap %d = %v, rolled %v", k, b, i, w, ref.h[i])
				}
			}
		}
	})
}

// TestHuberClipMatchesSqrtFormula holds huberClip's square-compare fast
// path to the formula it short-cuts, 3·√v, at the values where rounding
// could tell them apart: errors one ulp either side of the limit, variances
// at and around the 2⁻⁹⁰⁰ guard and in the subnormals, signed zeros,
// infinities, NaN and overflowing squares.
func TestHuberClipMatchesSqrtFormula(t *testing.T) {
	exact := func(e, v float64) float64 {
		if limit := 3 * math.Sqrt(v); limit > 0 && (e > limit || e < -limit) {
			if e > 0 {
				return limit
			}
			return -limit
		}
		return e
	}
	vs := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-310, math.SmallestNonzeroFloat64 * 3,
		0x1p-1022, 0x1p-950, math.Nextafter(0x1p-900, 0), 0x1p-900,
		math.Nextafter(0x1p-900, 1), 0x1p-899, 1e-200, 1e-9, 0.0025, 1, 2, 3,
		1.0 / 3, 7.25, 1e10, 1e150, 1e300, 2.1e307, math.MaxFloat64 / 9,
		math.MaxFloat64, math.Inf(1), math.NaN(), -1,
	}
	rnd := uint64(7)
	for i := 0; i < 2000; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		vs = append(vs, math.Ldexp(1+float64(rnd>>12)/(1<<52), int(rnd%2100)-1070))
	}
	for _, v := range vs {
		limit := 3 * math.Sqrt(v)
		es := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			5e-324, 1, 1e-300, 1e154, 1.4e154, math.MaxFloat64}
		// The clip limit itself and the fast path's own edge, e·e = c·v.
		for _, l := range []float64{limit, math.Sqrt(8.999999999991 * v)} {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				continue
			}
			up, down := math.Nextafter(l, math.Inf(1)), math.Nextafter(l, math.Inf(-1))
			es = append(es, l, up, down, math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0))
		}
		for _, e := range es {
			for _, e := range []float64{e, -e} {
				if got, want := huberClip(e, v), exact(e, v); !sameBits(got, want) {
					t.Fatalf("huberClip(%v, %v) = %v (%#x), sqrt formula %v (%#x)",
						e, v, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
