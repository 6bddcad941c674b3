package supervisor

import "fmt"

// Failover's fixed tuning.
const (
	// switchMargin is how much lower (absolute ratio) a challenger's
	// health must be before the failover abandons the current relay —
	// hysteresis against flapping between two mediocre links.
	switchMargin = 0.1
	// holdSamples is the minimum dwell on a relay after a switch.
	holdSamples = 2048
	// warmupSamples is the make-before-break gate: a relay other than the
	// active one is only switchable-to after delivering this many
	// consecutive real (unconcealed) samples, so the canceller never
	// starts consuming a stream whose recent window still holds
	// concealment zeros. It covers the non-causal gradient window of the
	// cancellers this failover feeds.
	warmupSamples = 64
)

// Failover selects which relay's forwarded stream feeds the canceller by
// link health alone: relay 0 is the standing preference and feeds the
// canceller whenever its link is healthy; when its link dies the failover
// moves to the healthiest alternative and returns once relay 0 recovers
// by a clear margin. Which relay is acoustically best (Section 4.2's
// periodic GCC-PHAT re-selection) is the relay mesh's job
// (internal/mesh).
type Failover struct {
	health []LinkHealth
	active int
	held   int
	moves  int
}

// NewFailover builds a failover over the given number of relay streams.
func NewFailover(relays int) (*Failover, error) {
	if relays <= 0 {
		return nil, fmt.Errorf("supervisor: failover needs at least one relay, got %d", relays)
	}
	f := &Failover{
		health: make([]LinkHealth, relays),
		held:   holdSamples, // free to switch immediately at start
	}
	for i := range f.health {
		f.health[i] = NewLinkHealth(HealthAlpha)
	}
	return f, nil
}

// Step feeds one sample period: one forwarded sample per relay and each
// relay's concealment flag (true = genuinely received). It returns the
// relay index whose stream the canceller should consume this period.
func (f *Failover) Step(forwarded []float64, real []bool) (int, error) {
	if len(forwarded) != len(f.health) || len(real) != len(f.health) {
		return 0, fmt.Errorf("supervisor: failover fed %d/%d streams, want %d",
			len(forwarded), len(real), len(f.health))
	}
	for i, r := range real {
		f.health[i].Observe(r)
	}
	if f.held < holdSamples {
		f.held++
		return f.active, nil
	}

	// Relay 0 wins whenever its link is healthy — with hysteresis at half
	// the threshold so a link hovering at the boundary does not pull the
	// association back and forth — and warm: a stream whose recent window
	// still holds concealment zeros is never adopted, however healthy its
	// smoothed ratio looks.
	if f.active != 0 && f.health[0].EWMA() < IneligibleRatio/2 && f.warm(0) {
		f.switchTo(0)
		return f.active, nil
	}
	// Otherwise move only when the active link has gone unhealthy and a
	// clearly healthier — and warm — alternative exists. During a total
	// outage (every stream concealed) nothing is warm and the failover
	// holds position rather than thrash between equally dead relays; the
	// first relay to deliver warmupSamples consecutive real samples wins.
	if cur := f.health[f.active].EWMA(); cur >= IneligibleRatio {
		best := f.active
		for i := range f.health {
			if i != f.active && !f.warm(i) {
				continue
			}
			if f.health[i].EWMA() < f.health[best].EWMA() {
				best = i
			}
		}
		if best != f.active && f.health[best].EWMA()+switchMargin <= cur {
			f.switchTo(best)
		}
	}
	return f.active, nil
}

// warm reports whether a relay's stream has delivered enough consecutive
// real samples that switching to it cannot feed the canceller concealed
// reference.
func (f *Failover) warm(relay int) bool {
	return f.health[relay].CleanRun() >= warmupSamples
}

func (f *Failover) switchTo(relay int) {
	f.active = relay
	f.held = 0
	f.moves++
}

// Switches returns how many relay moves the failover has made.
func (f *Failover) Switches() int { return f.moves }
