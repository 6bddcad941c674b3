package graph

// degradedFraction is the share of the planned non-causal window that a
// DEGRADED cap, the link's or the fleet's, keeps live.
const degradedFraction = 0.5

// limiter is the face of a canceller kind with a non-causal window:
// every kind but the headphone one.
type limiter interface {
	LimitNonCausal(n int)
	ActiveNonCausal() int
}

// window is the one owner of the canceller's live non-causal window, the
// lookahead taps of Eq. 3. Its grant is min(planned N, link cap, pressure
// cap), each cap being the DEGRADED window while its input is set, and
// it reaches the canceller only when it moves.
type window struct {
	c              limiter // nil for the Headphone kind, whose planned N is 0
	planned, live  int     // the N Build planned; the grant last applied
	link, pressure bool    // the supervisor's rung is DEGRADED; the fleet presses
}

// set records the two cap inputs and applies the grant if it moved.
func (w *window) set(link, pressure bool) {
	w.link, w.pressure = link, pressure
	n := w.planned
	if link || pressure {
		n = int(degradedFraction * float64(w.planned))
	}
	if n != w.live {
		w.live = n
		w.c.LimitNonCausal(n)
	}
}

// SetPressure sets the fleet's pressure input: while on, the live
// non-causal window is capped at the DEGRADED size whatever the
// supervisor's rung; off lifts only that cap.
func (pl *Pipeline) SetPressure(on bool) { pl.win.set(pl.win.link, on) }

// ActiveNonCausal returns how many non-causal taps the canceller runs.
func (pl *Pipeline) ActiveNonCausal() int {
	if pl.win.c == nil {
		return 0
	}
	return pl.win.c.ActiveNonCausal()
}
