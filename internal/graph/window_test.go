package graph

import (
	"reflect"
	"testing"

	"mute/internal/supervisor"
)

// countingLimiter counts the LimitNonCausal calls the window owner makes.
type countingLimiter struct {
	limiter
	calls int
}

func (c *countingLimiter) LimitNonCausal(n int) {
	c.calls++
	c.limiter.LimitNonCausal(n)
}

// TestWindowGrantComposesLadderAndPressure drives a supervised pipeline
// through both orders in which the link's ladder and the fleet's pressure
// input can disagree, and holds the live window to the grant at every
// sample: releasing pressure while the ladder sits in DEGRADED keeps the
// DEGRADED window, a ladder promotion under pressure keeps the cap, and
// FALLBACK keeps the full window for the promotion back to LANC.
func TestWindowGrantComposesLadderAndPressure(t *testing.T) {
	const lossy, outage, n = 1500, 3000, 8000
	x, cup := kindSignals(n)
	mask := make([]bool, n)
	for i := range mask {
		// One concealed sample in three for lossy samples after a clean
		// start: the ratio breaches DEGRADED's threshold, not FALLBACK's.
		// Then a 400-sample outage starves the link into FALLBACK.
		mask[i] = (i < 100 || i >= 100+lossy || (i-100)%3 != 2) && (i < outage || i >= outage+400)
	}
	cfg := validConfig(n)
	cfg.MaxNonCausalTaps = 8
	cfg.Supervise = true
	cfg.SupervisorConfig = &supervisor.Config{DegradeThreshold: 0.2, FallbackThreshold: 0.5}
	cfg.Reference = &maskedSource{SliceSource: SliceSource{Samples: x}, mask: mask}
	cfg.Ambient = &SliceAmbient{Local: x, Cup: cup}
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const full, degraded = 8, 4
	lanc := pl.canc.(supervisedKind).LANC
	pressed := false
	rung := func() supervisor.State { return pl.Supervision().FinalState }
	check := func(when string) {
		t.Helper()
		want := full
		if pressed || rung() == supervisor.StateDegraded {
			want = degraded
		}
		if got := lanc.ActiveNonCausal(); got != want || pl.ActiveNonCausal() != want {
			t.Fatalf("%s (sample %d, rung %v, pressure %v): LANC runs %d non-causal taps, pipeline reports %d, want %d",
				when, pl.Samples(), rung(), pressed, got, pl.ActiveNonCausal(), want)
		}
	}
	press := func(on bool) {
		pressed = on
		pl.SetPressure(on)
		check("pressure set")
	}
	stepUntil := func(to supervisor.State) {
		t.Helper()
		for rung() != to {
			if got, err := pl.ProcessBlock(1); err != nil || got == 0 {
				t.Fatalf("stream ended at sample %d before the ladder reached %v (err %v)", pl.Samples(), to, err)
			}
			check("ladder step")
		}
	}

	press(true)
	stepUntil(supervisor.StateDegraded)
	press(false) // the ladder still asks for the DEGRADED window
	if got := pl.ActiveNonCausal(); got != degraded {
		t.Fatalf("releasing pressure in DEGRADED widened the window to %d taps", got)
	}
	press(true)
	stepUntil(supervisor.StateLANC) // a promotion must not lift the pressure cap
	if got := pl.ActiveNonCausal(); got != degraded {
		t.Fatalf("promotion to LANC under pressure widened the window to %d taps", got)
	}
	press(false)
	stepUntil(supervisor.StateFallback)
	stepUntil(supervisor.StateLANC)
	want := []supervisor.Transition{
		{From: supervisor.StateLANC, To: supervisor.StateDegraded},
		{From: supervisor.StateDegraded, To: supervisor.StateLANC},
		{From: supervisor.StateLANC, To: supervisor.StateFallback},
		{From: supervisor.StateFallback, To: supervisor.StateLANC},
	}
	got := pl.Supervision().Transitions
	for i := range got {
		got[i].At = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ladder walk %+v, want %+v", got, want)
	}
}

// TestWindowGrantOnEveryKind checks each canceller kind's own live window
// against the owner's grant as the pressure input toggles, and that the
// owner reaches the kind only when the grant moves.
func TestWindowGrantOnEveryKind(t *testing.T) {
	const n = 512
	x, _ := kindSignals(n)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"lanc", func(*Config) {}},
		{"supervised", func(c *Config) { c.Supervise = true }},
		{"multi", func(c *Config) { c.ExtraReferences = []SampleSource{&SliceSource{Samples: x}} }},
		{"fdaf", func(c *Config) { c.FDAF = &FDAFParams{BlockSize: 16} }},
		{"headphone", func(c *Config) { c.Headphone = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig(n)
			tc.mutate(&cfg)
			pl, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var cl *countingLimiter
			if pl.win.c != nil {
				cl = &countingLimiter{limiter: pl.win.c}
				pl.win.c = cl
			} else if _, ok := pl.canc.(headphoneKind); !ok {
				t.Fatalf("%T has no window face", pl.canc)
			}
			full := pl.NonCausalTaps
			if (full == 0) != (cl == nil) {
				t.Fatalf("planned N %d with window face %v", full, cl != nil)
			}
			for i, on := range []bool{false, true, true, false, false, true} {
				pl.SetPressure(on)
				want := full
				if on {
					want = full / 2
				}
				if pl.win.live != want || pl.ActiveNonCausal() != want {
					t.Fatalf("step %d (pressure %v): grant %d, kind runs %d, want %d", i, on, pl.win.live, pl.ActiveNonCausal(), want)
				}
				if got, err := pl.ProcessBlock(16); err != nil || got != 16 {
					t.Fatalf("ProcessBlock = %d, %v", got, err)
				}
			}
			if cl != nil && cl.calls != 3 {
				t.Errorf("owner called LimitNonCausal %d times over 3 grant moves", cl.calls)
			}
		})
	}
}
