package mesh

import (
	"testing"

	"mute/internal/acoustics"
)

// FuzzMeshMembership drives the supervisor with an arbitrary stream of
// membership operations and link faults decoded from the fuzz input:
// joins, heartbeat expiries, link kills/revivals, relay moves, and stretches
// of sample pushes. Whatever the sequence, the mesh must never panic,
// never associate with a non-live slot, and keep its live-list/grid
// bookkeeping consistent.
func FuzzMeshMembership(f *testing.F) {
	// Seed corpus: quiet mesh, churny mesh, kill-everything, rejoin storm,
	// interleaved moves.
	f.Add([]byte{0x00, 0x13, 0x23, 0x33})
	f.Add([]byte{0x00, 0x10, 0x20, 0x33, 0x01, 0x11, 0x21, 0x33, 0x41, 0x33})
	f.Add([]byte{0x00, 0x01, 0x02, 0x33, 0x20, 0x21, 0x22, 0x33, 0x33, 0x33})
	f.Add([]byte{0x00, 0x33, 0x10, 0x00, 0x33, 0x10, 0x00, 0x33})
	f.Add([]byte{0x00, 0x01, 0x33, 0x50, 0x51, 0x33, 0x20, 0x30, 0x33, 0x00, 0x33})

	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 8
		cfg := testConfig(capacity)
		sup, err := NewSupervisor(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		down := make([]bool, capacity)
		fwd := make([]float64, capacity)
		real := make([]bool, capacity)
		var now int64
		phase := 0.0

		check := func() {
			t.Helper()
			if cur := sup.Current(); cur >= 0 && sup.mem.members[cur].state != live {
				t.Fatalf("supervisor associated with non-live slot %d (state %d)", cur, sup.mem.members[cur].state)
			}
			for slot := 0; slot < capacity; slot++ {
				idx := sup.mem.liveIdx[slot]
				isLive := sup.mem.members[slot].state == live
				if isLive != (idx >= 0) {
					t.Fatalf("slot %d live=%v but liveIdx=%d", slot, isLive, idx)
				}
				if idx >= 0 && sup.mem.liveIDs[idx] != int32(slot) {
					t.Fatalf("liveIDs[%d]=%d, want %d", idx, sup.mem.liveIDs[idx], slot)
				}
			}
		}

		for _, b := range ops {
			op := b >> 4
			id := int64(b & 0x07) // relay identity 0..7
			switch op {
			case 0, 1: // join (possibly a rejoin or a refresh)
				pos := acoustics.Point{X: float64(id) * 2, Y: float64(b&0x08) * 1.5}
				_, _ = sup.Join(id, pos) // capacity refusal is fine; panic is not
			case 2: // heartbeat expiry
				if slot := sup.mem.slotOf(id); slot >= 0 && sup.mem.members[slot].state == live {
					sup.mem.expire(slot)
					sup.dropped(slot)
				}
			case 4: // link kill
				if slot := sup.mem.slotOf(id); slot >= 0 {
					down[slot] = true
				}
			case 5: // link revival (the relay re-registers)
				if slot := sup.mem.slotOf(id); slot >= 0 {
					down[slot] = false
					_, _ = sup.Join(id, sup.mem.members[slot].pos)
				}
			case 6: // move
				if slot := sup.mem.slotOf(id); slot >= 0 {
					sup.mem.move(slot, acoustics.Point{X: float64(b), Y: float64(b >> 2)})
				}
			default: // push a stretch of samples
				n := 32 + int(b&0x3F)*8
				for i := 0; i < n; i++ {
					for s := 0; s < capacity; s++ {
						fwd[s], real[s] = 0, false
					}
					for _, slot := range sup.mem.liveIDs {
						if !down[slot] {
							phase = phase*0.97 + float64((now*1103515245+12345)%1000)/1000 - 0.5
							fwd[slot], real[slot] = phase, true
						}
					}
					if _, _, err := sup.Push(phase*0.5, fwd, real); err != nil {
						t.Fatal(err)
					}
					now++
				}
			}
			check()
		}
	})
}
