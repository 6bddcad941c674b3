package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mute/internal/audio"
)

// fleetDigestRun serves two sessions of profile p on a server with the
// given shard count over lossy, 150 ppm skewed links for 40 ticks. At
// tick 10 the pressure ladder moves to DEGRADED, at tick 20 back to
// NORMAL, and at tick 28 the server drains and a fresh server adopts the
// snapshot and serves the rest. It returns each session's residual.
func fleetDigestRun(t *testing.T, p Profile, shards int) [2][]float64 {
	t.Helper()
	const blocks, degradeAt, restoreAt, drainAt = 40, 10, 20, 28
	ids := [2]uint32{targetID, 1000}
	var res [2][]float64
	users := make([]*simUser, 2)
	cfg := Config{Shards: shards, Lifecycle: fastLadder()}
	srv := NewServer(cfg)
	for i, id := range ids {
		res[i] = make([]float64, blocks*p.FrameSamples)
		if _, err := srv.Open(id, p, WithResidual(res[i])); err != nil {
			t.Fatal(err)
		}
		faults := targetFaults()
		if i > 0 {
			faults = peerFaults(id)
		}
		users[i] = newSimUser(t, id, p.FrameSamples, faults)
		users[i].skewPPM = 150
	}
	for b := 0; b < blocks; b++ {
		switch b {
		case degradeAt:
			pressTo(t, srv, PressureDegraded)
		case restoreAt:
			pressTo(t, srv, PressureNormal)
		case drainAt:
			snap, err := srv.Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Sessions) != len(ids) {
				t.Fatalf("drained %d sessions, want %d", len(snap.Sessions), len(ids))
			}
			srv.Close()
			srv = NewServer(cfg)
			err = srv.Adopt(snap, func(id uint32) []SessionOption {
				for i := range ids {
					if ids[i] == id {
						return []SessionOption{WithResidual(res[i][b*p.FrameSamples:])}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range users {
			for _, d := range u.tick() {
				srv.Ingest(d)
			}
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	return res
}

// residualDigest is the FNV-64a digest of a residual's sample bits.
func residualDigest(x []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// roomIR is a seeded 64-tap decaying room response, generated as
// perfbench's churn-fdaf workload generates its room.
func roomIR(seed uint64) []float64 {
	rng := audio.NewRNG(seed*0x9e3779b97f4a7c15 + 5)
	ir := make([]float64, 64)
	ir[0] = 1
	for k := 1; k < len(ir); k++ {
		ir[k] = 0.3 * math.Exp(-float64(k)/12) * rng.Uniform()
	}
	return ir
}

// TestFleetResidualDigestsPinned pins the bits a fleet serves: the
// residuals of a time-domain and an FDAF (B=16) profile, at one and two
// shards, over lossy skewed links, through a DEGRADED pressure move and
// back and a Drain → Adopt handoff: a change to the sample loop, the
// reference alignment, the whole-frame pull or the tap controls that
// moves one served sample changes a digest. The fdaf16-room case is the
// full default FDAF session with a memoized room render and a calibrated
// secondary path, so the small real FFTs' exact arithmetic is pinned too.
func TestFleetResidualDigestsPinned(t *testing.T) {
	fdaf := lightProfile()
	fdaf.FDAFBlock = 16
	room := DefaultProfile()
	room.FDAFBlock = 16
	room.RoomIR = roomIR(1)
	room.EstimateSecondary = true
	room.EstimateNoiseRMS = 0.01
	cases := []struct {
		name string
		p    Profile
		want [2]string
	}{
		{"td", lightProfile(), [2]string{"eb2835b9005b58f1", "96a946f0f9134047"}},
		{"fdaf16", fdaf, [2]string{"f7a21fce3e500751", "31b6c6ad488e943f"}},
		{"fdaf16-room", room, [2]string{"50685830ac95e594", "a74ec774c926f4b7"}},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			res := fleetDigestRun(t, tc.p, shards)
			for i := range res {
				if got := residualDigest(res[i]); got != tc.want[i] {
					t.Errorf("%s shards=%d session %d: residual digest %s, want %s", tc.name, shards, i, got, tc.want[i])
				}
			}
		}
	}
}
