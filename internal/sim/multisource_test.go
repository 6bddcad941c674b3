package sim

import (
	"errors"
	"testing"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/graph"
	"mute/internal/telemetry"
)

// twoSourceScene builds a scene with independent wide-band sources at
// opposite sides of the room.
func twoSourceScene(seed uint64) Scene {
	scene := DefaultScene(audio.NewWhiteNoise(seed, fs, 0.4))
	scene.Sources = append(scene.Sources, Source{
		Pos: acoustics.Point{X: 1.0, Y: 3.5, Z: 1.5},
		Gen: audio.NewWhiteNoise(seed+100, fs, 0.4),
	})
	return scene
}

func TestMultiRelayBeatsSingleOnTwoSources(t *testing.T) {
	// The paper's multi-source limitation: one reference cannot cancel
	// two independent sources. Two relays, one per source, should.
	p := DefaultParams(twoSourceScene(1))
	p.Duration = 10
	single, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := single.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	p.Scene.ExtraRelays = []acoustics.Point{{X: 1.2, Y: 3.3, Z: 1.5}} // near source 1 (north)
	multi, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	mdb, err := multi.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if mdb >= sdb-5 {
		t.Errorf("multi-reference (%.1f dB) should beat single reference (%.1f dB) by > 5 dB on two sources", mdb, sdb)
	}
	if mdb > -8 {
		t.Errorf("multi-reference cancellation = %.1f dB, want < -8", mdb)
	}
	// The pipeline budgets the smaller of the two relays' lookaheads.
	las := p.Scene.relayLookaheads()
	if want := min(las[0], las[1]); multi.LookaheadSamples != want || multi.BudgetSpend.SpentSamples() != want {
		t.Errorf("lookahead %d, budget spends %d; want the smaller relay lookahead %d of %v",
			multi.LookaheadSamples, multi.BudgetSpend.SpentSamples(), want, las)
	}
}

// TestRunMultiRelayValidation checks a multi-relay scene is validated
// before anything renders: every extra relay needs a source to pair with
// and a place inside the room.
func TestRunMultiRelayValidation(t *testing.T) {
	base := DefaultParams(twoSourceScene(2))
	base.Duration = 2
	for name, relays := range map[string][]acoustics.Point{
		"more relays than sources": {{X: 1.2, Y: 3.3, Z: 1.5}, {X: 1, Y: 3, Z: 1.5}},
		"relay outside room":       {{X: 99, Y: 0, Z: 0}},
	} {
		p := base
		p.Scene.ExtraRelays = relays
		if err := p.Scene.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the scene", name)
		}
		if _, err := Run(p, MUTEHollow); err == nil {
			t.Errorf("%s: Run accepted the scene", name)
		}
	}
	bad := base
	bad.Scene.ExtraRelays = []acoustics.Point{{X: 1.2, Y: 3.3, Z: 1.5}}
	bad.Duration = 0
	if _, err := Run(bad, MUTEHollow); err == nil {
		t.Error("zero duration should error")
	}
}

// activeSettings are the Params and Scene settings that only MUTE's
// canceller reads, each set on its own.
var activeSettings = map[string]func(*Params){
	"supervise":     func(p *Params) { p.Supervise = true },
	"profiling":     func(p *Params) { p.Profiling = true },
	"block fdaf":    func(p *Params) { p.BlockFDAF = true },
	"transport":     func(p *Params) { p.LossTransport = &LossTransport{FrameSamples: 40, PrimeFrames: 1} },
	"clock skew":    func(p *Params) { p.ClockSkewPPM = 50 },
	"drift correct": func(p *Params) { p.DriftCorrect = true },
	"control loop":  func(p *Params) { p.ControlLoopDelaySamples = 8 },
	"extra relay":   func(p *Params) { p.Scene.ExtraRelays = []acoustics.Point{{X: 1.2, Y: 3.3, Z: 1.5}} },
}

// TestCancellerlessSchemesRefuseActiveSettings holds the Bose schemes and
// PassiveOnly to graph.ErrUnsupported for every setting their cancellers
// would drop, instead of a run that silently ignores it.
func TestCancellerlessSchemesRefuseActiveSettings(t *testing.T) {
	for _, scheme := range []Scheme{BoseActive, BoseOverall, PassiveOnly} {
		for name, set := range activeSettings {
			p := DefaultParams(twoSourceScene(3))
			p.Duration = 0.1
			set(&p)
			if _, err := Run(p, scheme); !errors.Is(err, graph.ErrUnsupported) {
				t.Errorf("%v with %s: err = %v, want graph.ErrUnsupported", scheme, name, err)
			}
		}
	}
}

// TestMultiRelayRefusals holds a multi-relay run to graph.ErrUnsupported
// for the settings its LANC banks lack, and runs the control loop, whose
// stale error every bank pairs alike.
func TestMultiRelayRefusals(t *testing.T) {
	for name, set := range activeSettings {
		if name == "extra relay" {
			continue
		}
		p := DefaultParams(twoSourceScene(3))
		p.Duration = 0.1
		p.Scene.ExtraRelays = []acoustics.Point{{X: 1.2, Y: 3.3, Z: 1.5}}
		set(&p)
		_, err := Run(p, MUTEHollow)
		switch {
		case name == "control loop":
			if err != nil {
				t.Errorf("two relays with a control loop: %v", err)
			}
		case !errors.Is(err, graph.ErrUnsupported):
			t.Errorf("two relays with %s: err = %v, want graph.ErrUnsupported", name, err)
		}
	}
}

// TestMultiRelayTraceRecordsEveryBank: a traced two-relay run records one
// lanc.step event per LANC bank at each trace cadence, each carrying its
// bank index, and both banks adapt (non-zero tap energy) — a multi-relay
// trace is not silent about the canceller.
func TestMultiRelayTraceRecordsEveryBank(t *testing.T) {
	p := DefaultParams(twoSourceScene(4))
	p.Duration = 1
	p.Scene.ExtraRelays = []acoustics.Point{{X: 1.2, Y: 3.3, Z: 1.5}}
	p.Trace = telemetry.NewTrace()
	if _, err := Run(p, MUTEHollow); err != nil {
		t.Fatal(err)
	}
	banks := map[int64][]float64{} // cadence time → bank indices, in record order
	var lastEnergy [2]float64
	for _, ev := range p.Trace.Events() {
		if ev.Stage != telemetry.StageLANC || ev.Name != "step" {
			continue
		}
		b, ok := ev.Values["bank"]
		if !ok {
			t.Fatalf("t=%d: lanc.step event without a bank value: %v", ev.T, ev.Values)
		}
		banks[ev.T] = append(banks[ev.T], b)
		lastEnergy[int(b)] = ev.Values["tap_energy"]
	}
	if len(banks) < 2 {
		t.Fatalf("%d cadence times with lanc.step events, want several", len(banks))
	}
	for at, bs := range banks {
		if len(bs) != 2 || bs[0] != 0 || bs[1] != 1 {
			t.Fatalf("t=%d: step events for banks %v, want [0 1]", at, bs)
		}
	}
	if lastEnergy[0] <= 0 || lastEnergy[1] <= 0 {
		t.Errorf("final tap energies %v, want both banks adapting", lastEnergy)
	}
}
