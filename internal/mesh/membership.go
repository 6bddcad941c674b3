package mesh

import (
	"fmt"

	"mute/internal/acoustics"
	"mute/internal/supervisor"
)

// memberState is a slot's lifecycle state.
type memberState uint8

const (
	vacant memberState = iota
	live
	dead // heartbeat expiry (crash detected from the stream going dark)
)

// member is one relay's slot: identity, position, liveness, and its
// forwarded-stream history window.
type member struct {
	id    int64
	pos   acoustics.Point
	cell  int
	state memberState

	// Liveness: the concealment EWMA (eligibility), the clean run
	// (warm-up gate) and the concealed run — samples since the last real
	// one, i.e. the heartbeat age.
	health supervisor.LinkHealth

	// ring is the doubled-ring forwarded history: 2*window samples with
	// each sample mirrored at cursor and cursor+window, so the current
	// window is always ring[pos : pos+window]. The cursor is shared
	// mesh-wide (every live member is pushed exactly once per sample).
	ring []float64
}

// membership tracks the dynamic relay set. Slots are dense [0, Capacity);
// the live list makes per-sample iteration O(live members), and the grid
// keeps candidate queries O(k).
type membership struct {
	cfg     Config
	grid    *grid
	members []member
	liveIDs []int32 // live slots, join order with swap-delete
	liveIdx []int32 // slot → index into liveIDs, -1 when not live

	joins, expirations, rejoins int
}

func newMembership(cfg Config) *membership {
	m := &membership{
		cfg:     cfg,
		grid:    newGrid(cfg),
		members: make([]member, cfg.Capacity),
		liveIdx: make([]int32, cfg.Capacity),
		liveIDs: make([]int32, 0, cfg.Capacity),
	}
	for i := range m.liveIdx {
		m.liveIdx[i] = -1
	}
	return m
}

// slotOf finds the slot currently holding id, live or not (-1 when
// unknown).
func (m *membership) slotOf(id int64) int32 {
	for i := range m.members {
		if m.members[i].state != vacant && m.members[i].id == id {
			return int32(i)
		}
	}
	return -1
}

// join admits (or re-admits) a relay. A relay rejoining after a crash or
// departure revives its old slot but starts cold: its stale window is
// zeroed and its clean run reset, so the warm-up gate holds until the
// stream has genuinely refilled.
func (m *membership) join(id int64, pos acoustics.Point) (int32, error) {
	if slot := m.slotOf(id); slot >= 0 {
		mb := &m.members[slot]
		if mb.state == live {
			return -1, fmt.Errorf("mesh: relay %d is already a live member", id)
		}
		m.rejoins++
		m.activate(slot, pos)
		return slot, nil
	}
	for i := range m.members {
		if m.members[i].state == vacant {
			slot := int32(i)
			mb := &m.members[slot]
			mb.id = id
			if mb.ring == nil {
				mb.ring = make([]float64, 2*m.cfg.WindowSamples)
			}
			mb.health = supervisor.NewLinkHealth(m.cfg.HealthAlpha)
			m.joins++
			m.activate(slot, pos)
			return slot, nil
		}
	}
	return -1, fmt.Errorf("mesh: at capacity (%d members), relay %d refused", m.cfg.Capacity, id)
}

// activate marks a slot live and resets its stream state. The health EWMA
// deliberately survives: a rejoining relay's concealment history is
// evidence about its link (a flapper would otherwise look pristine every
// cycle), and only fresh identities start with a clean slate.
func (m *membership) activate(slot int32, pos acoustics.Point) {
	mb := &m.members[slot]
	mb.state = live
	mb.pos = pos
	mb.cell = m.grid.cellOf(pos)
	mb.health.ResetRuns()
	for i := range mb.ring {
		mb.ring[i] = 0
	}
	m.grid.insert(slot, mb.cell)
	m.liveIdx[slot] = int32(len(m.liveIDs))
	m.liveIDs = append(m.liveIDs, slot)
}

// deactivate removes a slot from the live set (state set by the caller).
func (m *membership) deactivate(slot int32) {
	mb := &m.members[slot]
	m.grid.remove(slot, mb.cell)
	idx := m.liveIdx[slot]
	last := int32(len(m.liveIDs) - 1)
	moved := m.liveIDs[last]
	m.liveIDs[idx] = moved
	m.liveIdx[moved] = idx
	m.liveIDs = m.liveIDs[:last]
	m.liveIdx[slot] = -1
}

// expire marks a member dead after its heartbeat aged out.
func (m *membership) expire(slot int32) {
	if m.members[slot].state != live {
		return
	}
	m.deactivate(slot)
	m.members[slot].state = dead
	m.expirations++
}

// move updates a live member's position and its grid cell.
func (m *membership) move(slot int32, pos acoustics.Point) {
	mb := &m.members[slot]
	if mb.state != live {
		return
	}
	mb.pos = pos
	cell := m.grid.cellOf(pos)
	if cell != mb.cell {
		m.grid.remove(slot, mb.cell)
		m.grid.insert(slot, cell)
		mb.cell = cell
	}
}

// observe folds one sample period into a live member: the forwarded
// sample into the doubled ring at the shared cursor, and the concealment
// flag into the liveness estimators. It reports whether the member's
// heartbeat just aged out.
func (m *membership) observe(slot int32, cursor int, x float64, real bool) (expired bool) {
	mb := &m.members[slot]
	mb.ring[cursor] = x
	mb.ring[cursor+m.cfg.WindowSamples] = x
	mb.health.Observe(real)
	return mb.health.ConcealedRun() > heartbeatTimeoutSamples
}

// window returns a member's current correlation window (oldest→newest)
// for the shared cursor.
func (m *membership) window(slot int32, cursor int) []float64 {
	return m.members[slot].ring[cursor : cursor+m.cfg.WindowSamples]
}

// warm reports whether a member's stream satisfies the make-before-break
// gate: enough consecutive real samples that switching to it cannot play
// concealed reference.
func (m *membership) warm(slot int32) bool {
	mb := &m.members[slot]
	return mb.state == live && mb.health.CleanRun() >= warmupSamples
}

// healthy reports whether a member is live with an acceptable smoothed
// concealment ratio.
func (m *membership) healthy(slot int32) bool {
	mb := &m.members[slot]
	return mb.state == live && mb.health.EWMA() < ineligibleRatio
}

// Live returns the number of live members.
func (m *membership) countLive() int { return len(m.liveIDs) }
