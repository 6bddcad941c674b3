package mesh

import (
	"math/rand"
	"sort"
)

// flapPeriodSamples is a flapper's down and up phase length: 128 ms at
// 8 kHz, shorter than the heartbeat timeout, so a flapper never expires.
const flapPeriodSamples = 1024

// InjectorConfig describes a deterministic mesh fault schedule. All fault
// populations draw from one seeded stream, so a (seed, config) pair always
// produces the same run.
type InjectorConfig struct {
	// Seed drives every random draw.
	Seed int64
	// Duration is the run length in samples; SampleRate (default 8 kHz)
	// converts the churn rate and the crash lengths to samples.
	Duration   int64
	SampleRate float64

	// ChurnPerMin is the expected fraction of the mesh that crashes per
	// minute (0.10 = 10%/min). Each crash keeps the relay dark for a
	// uniform draw between 2 s and 10 s worth of samples, then the relay
	// recovers and rejoins.
	ChurnPerMin float64

	// FlapperAt pins relays that develop a flapping link: from a random
	// start their stream alternates 1024 samples down and 1024 up for the
	// rest of the run — the adversarial case for hysteresis. Experiments
	// place the flapper where it is acoustically tempting.
	FlapperAt []int
}

// faultEvent is one scheduled link transition: relay goes down (or a
// nested fault releases) at sample at.
type faultEvent struct {
	at    int64
	relay int
	down  bool
}

// Injector replays a precomputed fault schedule sample by sample. Link
// states nest (a flapping relay that also crashes stays down until both
// faults release), so per-relay state is a depth counter, not a flag.
// Advance and Down are allocation-free.
type Injector struct {
	events []faultEvent
	idx    int
	depth  []int // per-relay overlapping-fault count
}

// NewInjector builds the schedule for a mesh of n relays.
func NewInjector(cfg InjectorConfig, n int) *Injector {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 8000
	}
	minDown, maxDown := int(2*cfg.SampleRate), int(10*cfg.SampleRate)
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &Injector{depth: make([]int, n)}
	if n == 0 || cfg.Duration <= 0 {
		return in
	}
	addDownUp := func(relay int, at int64, down int64) {
		in.events = append(in.events, faultEvent{at: at, relay: relay, down: true})
		in.events = append(in.events, faultEvent{at: at + down, relay: relay, down: false})
	}
	// Crash churn: expected crashes = churn/min × relays × minutes,
	// Bernoulli-rounded so fractional expectations still fire sometimes.
	minutes := float64(cfg.Duration) / cfg.SampleRate / 60
	expect := cfg.ChurnPerMin * float64(n) * minutes
	crashes := int(expect)
	if rng.Float64() < expect-float64(crashes) {
		crashes++
	}
	for i := 0; i < crashes; i++ {
		relay := rng.Intn(n)
		at := rng.Int63n(cfg.Duration)
		down := int64(minDown + rng.Intn(maxDown-minDown+1))
		addDownUp(relay, at, down)
	}
	// Flappers: alternate down/up for the rest of the run.
	for _, relay := range cfg.FlapperAt {
		if relay < 0 || relay >= n {
			continue
		}
		start := rng.Int63n(cfg.Duration/2 + 1)
		for at := start; at < cfg.Duration; at += 2 * flapPeriodSamples {
			addDownUp(relay, at, flapPeriodSamples)
		}
	}
	sort.Slice(in.events, func(a, b int) bool { return in.events[a].at < in.events[b].at })
	return in
}

// Advance applies every event scheduled at or before sample t.
func (in *Injector) Advance(t int64) {
	for in.idx < len(in.events) && in.events[in.idx].at <= t {
		e := in.events[in.idx]
		if e.down {
			in.depth[e.relay]++
		} else {
			in.depth[e.relay]--
		}
		in.idx++
	}
}

// Down reports whether a relay's link is currently dark.
func (in *Injector) Down(relay int) bool { return in.depth[relay] > 0 }

// Events returns the number of scheduled link transitions.
func (in *Injector) Events() int { return len(in.events) }
