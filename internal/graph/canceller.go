package graph

import (
	"errors"
	"fmt"
	"time"

	"mute/internal/core"
	"mute/internal/headphone"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// canceller is the one face every canceller kind presents to the sample
// loop (LANC, §4 and Eq. 3). Prefilter announces a pulled block before
// its samples are stepped; Step returns the anti-noise for the forwarded
// reference x, the open-ear sample local, the previous residual ePrev and
// the concealment flag real. Session handoff reaches the taps, and the
// window owner the non-causal window through the limiter face.
type canceller interface {
	Prefilter(xs []float64)
	Step(x, local, ePrev float64, real bool) float64
	Weights() []float64
	SetWeights(w []float64) error
}

// lancKind steps the sample-domain LANC.
type lancKind struct{ *core.LANC }

func (k lancKind) Step(x, _, ePrev float64, real bool) float64 { return k.StepMasked(x, ePrev, real) }

// supervisedKind steps the degradation ladder over the LANC: the ladder
// rules on the sample, the window owner grants the rung's window, then
// the legs step. The rest goes to the LANC, which sees every sample.
type supervisedKind struct {
	*core.LANC
	sup *supervisor.Supervisor
	win *window
}

func (k supervisedKind) Step(x, local, ePrev float64, real bool) float64 {
	k.win.set(k.sup.Advance(local, ePrev, real) == supervisor.StateDegraded, k.win.pressure)
	return k.sup.StepLegs(x, local, ePrev, real)
}

// multiKind sums one LANC bank per reference — the paper's §6
// multi-source direction, one microphone for each noise channel. banks[0]
// steps Reference and banks[r] ExtraReferences[r-1], all on the one
// shared error. The gradient of the summed output separates per
// reference, so each bank adapts as a lone LANC on its reference would.
type multiKind struct {
	*core.LANC // banks[0]: every bank runs the same live window, so its count stands for all
	banks      []*core.LANC
	more       []reference // the further references' pull scratch, aligned like Reference
	i          int         // samples of the announced block already stepped
}

func (k *multiKind) Prefilter(xs []float64) {
	k.i = 0
	k.LANC.Prefilter(xs)
	for r := range k.more {
		k.banks[1+r].Prefilter(k.more[r].x[:len(xs)])
	}
}

func (k *multiKind) Step(x, _, ePrev float64, real bool) float64 {
	a := k.LANC.StepMasked(x, ePrev, real)
	for r := range k.more {
		a += k.banks[1+r].StepMasked(k.more[r].x[k.i], ePrev, k.more[r].m[k.i])
	}
	k.i++
	return a
}

func (k *multiKind) LimitNonCausal(n int) {
	for _, b := range k.banks {
		b.LimitNonCausal(n)
	}
}

// Weights returns every bank's taps, bank after bank.
func (k *multiKind) Weights() []float64 {
	var w []float64
	for _, b := range k.banks {
		w = append(w, b.Weights()...)
	}
	return w
}

func (k *multiKind) SetWeights(w []float64) error {
	n := len(w) / len(k.banks)
	if n*len(k.banks) != len(w) {
		return fmt.Errorf("graph: %d weights do not split over %d banks", len(w), len(k.banks))
	}
	for i, b := range k.banks {
		if err := b.SetWeights(w[i*n : (i+1)*n]); err != nil {
			return err
		}
	}
	return nil
}

// headphoneKind steps the headphone canceller on the cup microphone,
// which has no lossy link to mask, and exposes no taps and no window.
type headphoneKind struct{ *headphone.ANC }

func (k headphoneKind) Step(x, _, ePrev float64, _ bool) float64 { return k.ANC.Step(x, ePrev) }
func (headphoneKind) Weights() []float64                         { return nil }
func (headphoneKind) SetWeights([]float64) error {
	return errors.New("graph: the Headphone kind has no taps")
}

// fdafKind runs the block canceller behind the per-sample step. At a
// block's first sample the step has just been handed the previous
// block's last error, so that block's errors are complete: it adapts on
// them, produces the whole block's anti-noise from the announced
// reference, and returns it one sample at a time.
type fdafKind struct {
	*core.BlockLANC
	xs      []float64 // announced reference not yet consumed: a view of the pull scratch
	x, a, e []float64 // the current block's reference, anti-noise and errors
	i       int       // samples of the current block already stepped
	blockNS *telemetry.Histogram
}

func (k *fdafKind) Prefilter(xs []float64) { k.xs = xs }

func (k *fdafKind) Step(_, _, ePrev float64, _ bool) float64 {
	k.e[k.i-1] = ePrev
	if k.i == len(k.a) {
		// Take the next announced block, zero-padding a short final one.
		n := copy(k.x, k.xs)
		clear(k.x[n:])
		k.xs = k.xs[n:]
		var start time.Time
		if k.blockNS != nil {
			start = time.Now()
		}
		_ = k.ProcessBlockInto(k.a, k.x, k.e) // lengths fixed at Build: cannot fail
		if k.blockNS != nil {
			k.blockNS.Observe(float64(time.Since(start).Nanoseconds()))
		}
		k.i = 0
	}
	k.i++
	return k.a[k.i-1]
}

// Weights returns a copy of the canceller's sample-domain taps.
func (pl *Pipeline) Weights() []float64 { return pl.canc.Weights() }

// SetWeights warm-starts the canceller from taps Weights returned on a
// pipeline built from the same Config.
func (pl *Pipeline) SetWeights(w []float64) error { return pl.canc.SetWeights(w) }

// AdaptState reads the sample-domain LANC's profile switches, tap energy
// and effective step (all zero for the Headphone and FDAF kinds). For the
// multi-reference kind the switches and the tap energy are the banks'
// sums and the step is the first bank's.
func (pl *Pipeline) AdaptState() (switches int, tapEnergy, muEff float64) {
	for _, l := range pl.banks {
		switches += l.Switches()
		tapEnergy += l.TapEnergy()
	}
	if len(pl.banks) > 0 {
		muEff = pl.banks[0].EffectiveStep()
	}
	return switches, tapEnergy, muEff
}

// Supervision returns the degradation ladder's report (nil unless
// supervised).
func (pl *Pipeline) Supervision() *supervisor.Report {
	if k, ok := pl.canc.(supervisedKind); ok {
		r := k.sup.Report()
		return &r
	}
	return nil
}
