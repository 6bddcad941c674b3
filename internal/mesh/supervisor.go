package mesh

import (
	"fmt"

	"mute/internal/acoustics"
	"mute/internal/relaysel"
	"mute/internal/telemetry"
)

// rankedCandidate is one round's measurement of a candidate relay, cached
// between rounds so an emergency handoff has somewhere to go without
// waiting for the next round.
type rankedCandidate struct {
	slot int32
	lag  int
	peak float64
}

// Report is the mesh supervisor's lifetime accounting.
type Report struct {
	// Membership churn.
	Joins, Rejoins, Expirations int
	// Live is the live-member count at report time.
	Live int

	// Rounds is how many selection rounds ran; Correlations is the total
	// GCC-PHAT correlations across all rounds — Correlations/Rounds ≈
	// CandidateK regardless of mesh size is the O(k) pruning evidence.
	// DistressRounds is the subset that widened to a full live-mesh scan
	// because the mesh was orphaned or the incumbent's lookahead had
	// collapsed below the usable floor.
	Rounds         int
	Correlations   int
	DistressRounds int

	// Handoffs counts completed association changes; EmergencyHandoffs is
	// the subset forced between rounds by the active relay going dark.
	Handoffs          int
	EmergencyHandoffs int
	// FlapsSuppressed counts challenger candidacies that were abandoned
	// before reaching the dwell — switches the hysteresis refused to make.
	FlapsSuppressed int
	// OrphanedWindows counts transitions into the no-relay-associated
	// state; OrphanedSamples is the total time spent there.
	OrphanedWindows int
	OrphanedSamples int
}

// MembershipChanges is the total membership churn the mesh absorbed.
func (r Report) MembershipChanges() int {
	return r.Joins + r.Rejoins + r.Expirations
}

// Supervisor runs the churn-tolerant relay mesh: it tracks membership,
// prunes each GCC-PHAT selection round to the CandidateK nearest live
// relays via the spatial grid, applies the hysteretic dwell + warm-up +
// crossfade handoff policy (or the naive per-round argmax when
// Config.Naive is set), and keeps the Report.
//
// The per-sample contract is Push: the local (error-mic) sample plus one
// forwarded sample and concealment flag per slot. Push returns the
// reference sample the canceller should consume and whether it is real
// (false while orphaned, and while a crossfade is blending in any
// concealed content). Steady-state Push performs no allocation.
type Supervisor struct {
	cfg Config
	mem *membership

	// Local (error-mic) doubled ring, sharing the membership cursor.
	localRing []float64
	cursor    int
	fill      int64

	// Reused correlation state.
	corr     *relaysel.Correlator
	corrOut  relaysel.Correlation
	sel      relaysel.Selection
	candSlot []int32           // candidate slots for the in-flight round
	candView [][]float64       // their window views
	ranked   []rankedCandidate // last round's measurements, descending lag
	expired  []int32           // per-sample expiry scratch
	probeCur int               // round-robin probe cursor over live slots

	// Grid-query state: the closures are built once at construction and
	// read anchor through the receiver, so a round creates no closures
	// (steady-state rounds must not allocate).
	anchor acoustics.Point
	eligFn func(slot int32) bool
	distFn func(slot int32) float64

	// Association state.
	current    int32 // active slot, -1 = orphaned
	currentLag int   // last measured lookahead of the active relay
	pendSlot   int32
	pendRun    int
	badRun     int // consecutive rounds the incumbent measured below the lead floor

	// Crossfade state.
	fading   bool
	fadeFrom int32
	fadePos  int

	rep Report

	// Optional observability (nil-safe).
	reg                *telemetry.Registry
	cMembers, cHandoff *telemetry.Counter
	cFlaps, cOrphans   *telemetry.Counter
	trace              *telemetry.Trace
}

// NewSupervisor builds a mesh supervisor. reg and trace may be nil.
func NewSupervisor(cfg Config, reg *telemetry.Registry, trace *telemetry.Trace) (*Supervisor, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	corr, err := relaysel.NewCorrelator(cfg.WindowSamples)
	if err != nil {
		return nil, err
	}
	maxCand := cfg.CandidateK + probeCount(cfg.CandidateK) + 1 // + current
	s := &Supervisor{
		cfg:       cfg,
		mem:       newMembership(cfg),
		localRing: make([]float64, 2*cfg.WindowSamples),
		corr:      corr,
		candSlot:  make([]int32, 0, maxCand),
		candView:  make([][]float64, 0, maxCand),
		ranked:    make([]rankedCandidate, 0, maxCand),
		expired:   make([]int32, 0, cfg.Capacity),
		current:   -1,
		pendSlot:  -1,
		trace:     trace,
	}
	s.eligFn = func(slot int32) bool {
		return s.cfg.Naive || s.mem.healthy(slot)
	}
	s.distFn = func(slot int32) float64 {
		return s.anchor.Dist(s.mem.members[slot].pos)
	}
	if reg != nil {
		s.reg = reg
		s.cMembers = reg.Counter("mesh.memberships")
		s.cHandoff = reg.Counter("mesh.handoffs")
		s.cFlaps = reg.Counter("mesh.flaps_suppressed")
		s.cOrphans = reg.Counter("mesh.orphaned_windows")
	}
	return s, nil
}

// traceEvent records a rare association event (handoffs, orphanings) on
// the mesh trace stage. Per-sample state is deliberately not traced.
func (s *Supervisor) traceEvent(name string, slot int32) {
	if s.trace == nil {
		return
	}
	s.trace.Record(s.fill, telemetry.StageMesh, name, map[string]float64{
		"slot": float64(slot),
		"live": float64(s.mem.countLive()),
	})
}

// probeCount is how many round-robin probe slots ride along each round on
// top of the grid-nearest cohort, so a distant relay that became the best
// choice (the source walked away) is eventually rediscovered.
func probeCount(k int) int {
	p := k / 4
	if p < 1 {
		p = 1
	}
	return p
}

// Join admits a relay (or refreshes a live one's position). Rejoining
// after a crash or departure revives the relay's slot cold: the warm-up
// gate holds until its stream has refilled.
func (s *Supervisor) Join(id int64, pos acoustics.Point) (int, error) {
	if slot := s.mem.slotOf(id); slot >= 0 && s.mem.members[slot].state == live {
		s.mem.move(slot, pos)
		return int(slot), nil
	}
	slot, err := s.mem.join(id, pos)
	if err != nil {
		return -1, err
	}
	s.onMembership()
	return int(slot), nil
}

// onMembership refreshes churn counters after any membership change.
func (s *Supervisor) onMembership() {
	if s.cMembers != nil {
		s.cMembers.Inc()
	}
}

// dropped reconciles association state after slot left the live set.
func (s *Supervisor) dropped(slot int32) {
	if s.pendSlot == slot {
		s.pendSlot = -1
		s.pendRun = 0
	}
	if s.fading && s.fadeFrom == slot {
		s.fading = false
	}
	if s.current == slot {
		if s.cfg.Naive {
			// The naive baseline has no emergency path: it rides the dead
			// association until the next round's argmax.
			s.orphan()
			return
		}
		s.emergency()
	}
}

// emergency reassociates immediately — the active relay is gone or dark —
// using the last round's cached ranking, falling back to the orphaned
// state when no warm, healthy, live candidate exists.
func (s *Supervisor) emergency() {
	for _, rc := range s.ranked {
		if rc.slot == s.current {
			continue
		}
		if rc.lag < s.cfg.MinLeadSamples || rc.peak < s.cfg.MinPeak {
			continue
		}
		if !s.mem.healthy(rc.slot) || !s.mem.warm(rc.slot) {
			continue
		}
		// Hard cut: the outgoing stream is dead, so crossfading with it
		// would blend in concealed samples.
		s.current = rc.slot
		s.currentLag = rc.lag
		s.fading = false
		s.pendSlot = -1
		s.pendRun = 0
		s.badRun = 0
		s.rep.Handoffs++
		s.rep.EmergencyHandoffs++
		if s.cHandoff != nil {
			s.cHandoff.Inc()
		}
		s.traceEvent("emergency_handoff", s.current)
		return
	}
	s.orphan()
}

// orphan enters the no-relay-associated state.
func (s *Supervisor) orphan() {
	if s.current < 0 {
		return
	}
	s.current = -1
	s.currentLag = 0
	s.fading = false
	s.pendSlot = -1
	s.pendRun = 0
	s.badRun = 0
	s.rep.OrphanedWindows++
	if s.cOrphans != nil {
		s.cOrphans.Inc()
	}
	s.traceEvent("orphaned", -1)
}

// Push feeds one sample period. forwarded and real are indexed by slot
// and must cover Capacity; only live slots are read. It returns the
// reference sample for the canceller and whether it is genuinely received
// (false = treat as concealed).
func (s *Supervisor) Push(local float64, forwarded []float64, real []bool) (float64, bool, error) {
	if len(forwarded) < s.cfg.Capacity || len(real) < s.cfg.Capacity {
		return 0, false, fmt.Errorf("mesh: fed %d/%d slots, capacity %d", len(forwarded), len(real), s.cfg.Capacity)
	}
	s.localRing[s.cursor] = local
	s.localRing[s.cursor+s.cfg.WindowSamples] = local
	s.expired = s.expired[:0]
	for _, slot := range s.mem.liveIDs {
		if s.mem.observe(slot, s.cursor, forwarded[slot], real[slot]) {
			s.expired = append(s.expired, slot)
		}
	}
	s.cursor++
	if s.cursor == s.cfg.WindowSamples {
		s.cursor = 0
	}
	s.fill++

	for _, slot := range s.expired {
		s.mem.expire(slot)
		s.onMembership()
		s.dropped(slot)
	}
	// Between-rounds emergency: the active relay has gone dark for longer
	// than the emergency run but has not yet aged out of membership. The
	// naive baseline gets none of this — it plays concealment until its
	// next round.
	if s.current >= 0 && !s.cfg.Naive && s.mem.members[s.current].health.ConcealedRun() > s.cfg.EmergencyRunSamples {
		s.emergency()
	}

	if s.fill >= int64(s.cfg.WindowSamples) && s.fill%int64(s.cfg.IntervalSamples) == 0 {
		s.round()
	}

	if s.current < 0 {
		s.rep.OrphanedSamples++
		return 0, false, nil
	}
	out := forwarded[s.current]
	ok := real[s.current]
	if s.fading {
		if s.mem.members[s.fadeFrom].state != live {
			s.fading = false
		} else {
			// Equal-steps linear blend; the mask is real only when both
			// contributions are real, so a fade never launders concealment.
			w := float64(s.fadePos+1) / float64(s.cfg.CrossfadeSamples+1)
			out = w*out + (1-w)*forwarded[s.fadeFrom]
			ok = ok && real[s.fadeFrom]
			s.fadePos++
			if s.fadePos >= s.cfg.CrossfadeSamples {
				s.fading = false
			}
		}
	}
	return out, ok, nil
}

// round runs one pruned selection round: gather the CandidateK nearest
// live relays (anchored at the active relay, or the ear when orphaned),
// ride a few round-robin probes along, correlate, and apply the handoff
// policy. Distress rounds — the mesh is orphaned, or the incumbent's
// lookahead has collapsed below the usable floor — widen to the full live
// mesh instead: nearest-neighbour pruning anchors at the incumbent, and
// when the incumbent has gone acoustically bad its neighbours have too,
// so the O(k) cohort would hunt for a replacement at probe pace. Both
// policies share the same cohort rule, so the naive baseline differs only
// in how it switches.
func (s *Supervisor) round() {
	s.rep.Rounds++
	s.candSlot = s.candSlot[:0]
	if s.current < 0 || s.currentLag < s.cfg.MinLeadSamples {
		s.rep.DistressRounds++
		for _, slot := range s.mem.liveIDs {
			if s.eligFn(slot) {
				s.candSlot = append(s.candSlot, slot)
			}
		}
	} else {
		s.anchor = s.mem.members[s.current].pos
		near := s.mem.grid.nearest(s.anchor, s.cfg.CandidateK, s.eligFn, s.distFn)
		s.candSlot = append(s.candSlot, near...)
		// Round-robin probes from the full live list.
		if n := len(s.mem.liveIDs); n > 0 {
			for p := 0; p < probeCount(s.cfg.CandidateK); p++ {
				s.probeCur++
				slot := s.mem.liveIDs[s.probeCur%n]
				if !s.hasCandidate(slot) && (s.cfg.Naive || s.mem.healthy(slot)) {
					s.candSlot = append(s.candSlot, slot)
				}
			}
		}
	}
	// The active relay is always re-measured so hysteresis compares
	// against a fresh lag, not a stale one.
	if s.current >= 0 && !s.hasCandidate(s.current) {
		s.candSlot = append(s.candSlot, s.current)
	}
	s.ranked = s.ranked[:0]
	if len(s.candSlot) == 0 {
		s.decide(-1)
		return
	}
	s.candView = s.candView[:0]
	for _, slot := range s.candSlot {
		s.candView = append(s.candView, s.mem.window(slot, s.cursor))
	}
	localView := s.localRing[s.cursor : s.cursor+s.cfg.WindowSamples]
	if err := s.corr.SelectInto(&s.sel, &s.corrOut, s.candView, localView,
		s.cfg.MaxLagSamples, s.cfg.MinLeadSamples, s.cfg.MinPeak); err != nil {
		// Config is validated up front; a correlation error here means the
		// window contract broke — fail the round, keep the association.
		s.decide(-1)
		return
	}
	s.rep.Correlations += len(s.candSlot)
	for _, r := range s.sel.Reports { // already descending by lag
		s.ranked = append(s.ranked, rankedCandidate{
			slot: s.candSlot[r.Index],
			lag:  r.LagSamples,
			peak: r.Peak,
		})
	}
	// The winner is the highest-lag candidate that passes both gates, not
	// Selection.Best: Best only tests the single max-lag report, and in a
	// wide cohort the lag argmax is often a spurious correlation whose
	// junk peak would veto the whole round.
	best := int32(-1)
	for _, rc := range s.ranked {
		if rc.lag >= s.cfg.MinLeadSamples && rc.peak >= s.cfg.MinPeak {
			best = rc.slot
			break
		}
	}
	if s.current >= 0 {
		for _, rc := range s.ranked {
			if rc.slot == s.current {
				s.currentLag = rc.lag
				break
			}
		}
	}
	s.decide(best)
}

func (s *Supervisor) hasCandidate(slot int32) bool {
	for _, c := range s.candSlot {
		if c == slot {
			return true
		}
	}
	return false
}

// decide applies the round's winner to the association state machine.
func (s *Supervisor) decide(best int32) {
	if s.cfg.Naive {
		// Naive baseline: hard-switch to the instantaneous argmax, no
		// health fusion, no dwell, no warm-up, no crossfade.
		if best < 0 {
			s.orphan()
			return
		}
		if best != s.current {
			wasOrphan := s.current < 0
			s.current = best
			s.fading = false
			if !wasOrphan {
				s.rep.Handoffs++
				if s.cHandoff != nil {
					s.cHandoff.Inc()
				}
			}
		}
		for _, rc := range s.ranked {
			if rc.slot == s.current {
				s.currentLag = rc.lag
				break
			}
		}
		return
	}

	if s.current < 0 {
		// Orphaned: adopt the winner as soon as its stream is warm —
		// nothing is playing, but the make-before-break gate still refuses
		// a stream whose window holds concealed samples.
		if best >= 0 && s.mem.warm(best) {
			s.current = best
			for _, rc := range s.ranked {
				if rc.slot == best {
					s.currentLag = rc.lag
					break
				}
			}
			s.pendSlot = -1
			s.pendRun = 0
			s.badRun = 0
			s.rep.Handoffs++
			if s.cHandoff != nil {
				s.cHandoff.Inc()
			}
			s.traceEvent("adopted", best)
		}
		return
	}

	// Lookahead-margin fusion: an incumbent whose lag has collapsed below
	// the usable floor for two consecutive rounds is failing, not merely
	// challenged — the dwell exists to protect a working association from
	// measurement jitter, and there is nothing left to protect. (One bad
	// round alone is within PHAT's heavy-tailed error, so the rescue has
	// its own short confirmation.) Replace it with the round's winner,
	// warm-up and crossfade still applying: the old stream is alive, just
	// acoustically useless, so the blend is real on both sides.
	if s.currentLag < s.cfg.MinLeadSamples {
		s.badRun++
		if s.badRun >= 2 && best >= 0 && best != s.current && s.mem.warm(best) {
			s.fadeFrom = s.current
			s.fadePos = 0
			s.fading = s.cfg.CrossfadeSamples > 0
			s.current = best
			for _, rc := range s.ranked {
				if rc.slot == best {
					s.currentLag = rc.lag
					break
				}
			}
			s.pendSlot = -1
			s.pendRun = 0
			s.badRun = 0
			s.rep.Handoffs++
			if s.cHandoff != nil {
				s.cHandoff.Inc()
			}
			s.traceEvent("rescue_handoff", s.current)
		}
		return
	}
	s.badRun = 0

	// Challenger must beat the current association's fresh lag by the
	// switch margin; otherwise any pending candidacy is abandoned.
	challenger := int32(-1)
	if best >= 0 && best != s.current {
		for _, rc := range s.ranked {
			if rc.slot == best {
				if rc.lag >= s.currentLag+s.cfg.SwitchMarginSamples {
					challenger = best
				}
				break
			}
		}
	}
	if challenger < 0 {
		if s.pendRun > 0 {
			s.rep.FlapsSuppressed++
			if s.cFlaps != nil {
				s.cFlaps.Inc()
			}
		}
		s.pendSlot = -1
		s.pendRun = 0
		return
	}
	// The candidacy tracks "the incumbent is being out-led", not one
	// specific challenger: in a dense mesh several near-equal relays trade
	// the per-round argmax, and pinning the dwell to a single slot would
	// reset it every trade and starve genuine handoffs. The dwell counts
	// consecutive rounds the margin was beaten; the target retargets to
	// the freshest best. Post-switch flapping is still blocked because the
	// old relay must then out-lead the new one by the same margin.
	s.pendSlot = challenger
	s.pendRun++
	// Dwell satisfied and the incoming stream warm: make-before-break
	// holds the switch open until both are true.
	if s.pendRun >= s.cfg.DwellRounds && s.mem.warm(challenger) {
		s.fadeFrom = s.current
		s.fadePos = 0
		s.fading = s.cfg.CrossfadeSamples > 0
		s.current = challenger
		for _, rc := range s.ranked {
			if rc.slot == challenger {
				s.currentLag = rc.lag
				break
			}
		}
		s.pendSlot = -1
		s.pendRun = 0
		s.rep.Handoffs++
		if s.cHandoff != nil {
			s.cHandoff.Inc()
		}
		s.traceEvent("handoff", s.current)
	}
}

// Current returns the active slot, or -1 while orphaned.
func (s *Supervisor) Current() int { return int(s.current) }

// Report returns the supervisor's accounting so far.
func (s *Supervisor) Report() Report {
	r := s.rep
	r.Joins = s.mem.joins
	r.Rejoins = s.mem.rejoins
	r.Expirations = s.mem.expirations
	r.Live = s.mem.countLive()
	return r
}
