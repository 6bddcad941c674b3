package sim

import (
	"fmt"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
)

// MultiRelayParams configures a multi-source, multi-relay run: one relay
// per noise source, each forwarding its own reference stream to an ear
// device running a multi-reference LANC (the paper's Section 6 multi-source
// direction, implemented).
type MultiRelayParams struct {
	// Base carries the common parameters; Base.Scene.Sources holds the
	// noise sources and Base.Scene.RelayPos is ignored.
	Base Params
	// RelayPositions places one relay per source (len must match the
	// scene's source count).
	RelayPositions []acoustics.Point
}

// RunMultiRelay simulates the multi-reference system and returns the usual
// Result. Each relay's lookahead is budgeted independently; the ear device
// sums one adaptive filter per relay.
func RunMultiRelay(mp MultiRelayParams) (*Result, error) {
	p := mp.Base
	n, err := p.validate()
	if err != nil {
		return nil, err
	}
	if len(mp.RelayPositions) != len(p.Scene.Sources) {
		return nil, fmt.Errorf("sim: %d relay positions for %d sources",
			len(mp.RelayPositions), len(p.Scene.Sources))
	}
	for i, rp := range mp.RelayPositions {
		if !p.Scene.Room.Inside(rp) {
			return nil, fmt.Errorf("sim: relay %d at %v outside room", i, rp)
		}
	}
	fs := p.Scene.SampleRate

	// Acoustic legs: every source contributes to every relay and to the
	// ear, through Run's renders and relay capture chain (independent
	// mic-noise streams per relay).
	waves := sourceWaves(p.Scene, n)
	open, err := earLeg(p, waves)
	if err != nil {
		return nil, err
	}
	refs := make([][]float64, len(mp.RelayPositions))
	for r, rp := range mp.RelayPositions {
		if _, refs[r], err = relayLeg(p, waves, rp, p.Relay.Seed+uint64(r)*101, true); err != nil {
			return nil, err
		}
	}

	// Secondary chain and per-relay budgets.
	secIR, secEst, err := secondaryChain(p, sampleDelay(p.Pipeline.Total()))
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.Config, len(mp.RelayPositions))
	minLA := int(^uint(0) >> 1)
	for r, rp := range mp.RelayPositions {
		// Lookahead for relay r relative to its paired source.
		src := p.Scene.Sources[r].Pos
		la := int(acoustics.DirectDelaySamples(src, p.Scene.EarPos, fs) -
			acoustics.DirectDelaySamples(src, rp, fs))
		if la < 0 {
			la = 0
		}
		if la < minLA {
			minLA = la
		}
		budget, err := core.NewBudget(la, p.Pipeline)
		if err != nil {
			return nil, err
		}
		nTaps := budget.UsableTaps
		if p.MaxNonCausalTaps > 0 && nTaps > p.MaxNonCausalTaps {
			nTaps = p.MaxNonCausalTaps
		}
		cfgs[r] = core.Config{
			NonCausalTaps: nTaps,
			CausalTaps:    p.CausalTaps,
			Mu:            p.Mu / float64(len(mp.RelayPositions)), // shared error: split the step
			Normalized:    !p.PlainLMS,
			Leak:          graph.Leak,
			SecondaryPath: secEst,
		}
	}
	multi, err := core.NewMulti(cfgs)
	if err != nil {
		return nil, err
	}

	secCh := dsp.NewStreamConvolver(secIR)
	earNoise := audio.NewRNG(p.Seed + 23)
	on := make([]float64, n)
	residual := make([]float64, n)
	row := make([]float64, len(refs))
	e := 0.0
	for t := 0; t < n; t++ {
		multi.Adapt(e)
		for r := range refs {
			row[r] = refs[r][t]
		}
		if err := multi.Push(row); err != nil {
			return nil, err
		}
		a := multi.AntiNoise()
		meas := open[t] + secCh.Process(a)
		on[t] = meas
		e = meas + p.EarMicNoiseRMS*earNoise.Norm()
		residual[t] = e
	}
	return &Result{
		Scheme:            MUTEHollow,
		Open:              open,
		Off:               open,
		On:                on,
		Residual:          residual,
		LookaheadSamples:  minLA,
		UsedNonCausalTaps: cfgs[0].NonCausalTaps,
		SampleRate:        fs,
	}, nil
}
