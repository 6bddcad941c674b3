package mesh

import (
	"math/rand"
	"sort"

	"mute/internal/acoustics"
)

// InjectorConfig describes a deterministic mesh fault schedule. All fault
// populations draw from one seeded stream, so a (seed, config) pair always
// produces the same run.
type InjectorConfig struct {
	// Seed drives every random draw.
	Seed int64
	// Relays is the mesh size; Duration is the run length in samples at
	// SampleRate.
	Relays     int
	Duration   int64
	SampleRate float64

	// ChurnPerMin is the expected fraction of the mesh that crashes per
	// minute (0.10 = 10%/min). Each crash keeps the relay dark for a
	// uniform draw in [MinDownSamples, MaxDownSamples] (defaults 2 s and
	// 10 s worth), then the relay recovers and rejoins.
	ChurnPerMin    float64
	MinDownSamples int
	MaxDownSamples int

	// Flappers relays develop a flapping link: their stream alternates
	// down/up with period FlapPeriodSamples (default 2048) for the whole
	// run — the adversarial case for hysteresis. FlapperAt pins which
	// relays flap (overriding the random draw) so experiments can place
	// the flapper where it is acoustically tempting.
	Flappers          int
	FlapperAt         []int
	FlapPeriodSamples int

	// ZoneOutages correlated outages each pick a random live position and
	// take down every relay within ZoneRadius (default 3 m) for
	// ZoneDownSamples (default 4 s worth) — the "access point died" case.
	ZoneOutages     int
	ZoneRadius      float64
	ZoneDownSamples int
}

func (c *InjectorConfig) fill() {
	if c.SampleRate <= 0 {
		c.SampleRate = 8000
	}
	if c.MinDownSamples <= 0 {
		c.MinDownSamples = int(2 * c.SampleRate)
	}
	if c.MaxDownSamples <= c.MinDownSamples {
		c.MaxDownSamples = int(10 * c.SampleRate)
	}
	if c.FlapPeriodSamples <= 0 {
		c.FlapPeriodSamples = 2048
	}
	if c.ZoneRadius <= 0 {
		c.ZoneRadius = 3
	}
	if c.ZoneDownSamples <= 0 {
		c.ZoneDownSamples = int(4 * c.SampleRate)
	}
}

// faultEvent is one scheduled link transition: relay goes down (or a
// nested fault releases) at sample at.
type faultEvent struct {
	at    int64
	relay int
	down  bool
}

// Injector replays a precomputed fault schedule sample by sample. Link
// states nest (a relay inside a zone outage that also crashes stays down
// until both faults release), so per-relay state is a depth counter, not
// a flag. Advance and Down are allocation-free.
type Injector struct {
	events []faultEvent
	idx    int
	depth  []int // per-relay overlapping-fault count

	base []acoustics.Point
}

// NewInjector builds the schedule for the given relay positions. The
// positions slice is copied.
func NewInjector(cfg InjectorConfig, positions []acoustics.Point) *Injector {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(positions)
	in := &Injector{
		depth: make([]int, n),
		base:  append([]acoustics.Point(nil), positions...),
	}
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
		down := int64(cfg.MinDownSamples + rng.Intn(cfg.MaxDownSamples-cfg.MinDownSamples+1))
		addDownUp(relay, at, down)
	}
	// Flappers: alternate down/up for the rest of the run.
	flappers := cfg.FlapperAt
	for i := 0; len(flappers) < cfg.Flappers && i < n; i++ {
		flappers = append(flappers, rng.Intn(n))
	}
	for _, relay := range flappers {
		if relay < 0 || relay >= n {
			continue
		}
		start := rng.Int63n(cfg.Duration/2 + 1)
		p := int64(cfg.FlapPeriodSamples)
		for at := start; at < cfg.Duration; at += 2 * p {
			addDownUp(relay, at, p)
		}
	}
	// Zone outages: everything within radius of a random relay's position
	// goes down together.
	for i := 0; i < cfg.ZoneOutages; i++ {
		center := in.base[rng.Intn(n)]
		at := rng.Int63n(cfg.Duration)
		for r, p := range in.base {
			if center.Dist(p) <= cfg.ZoneRadius {
				addDownUp(r, at, int64(cfg.ZoneDownSamples))
			}
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
