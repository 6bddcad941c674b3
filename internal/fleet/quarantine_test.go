package fleet

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mute/internal/stream"
)

// poisonID is the deliberately panicking session in the quarantine suite
// — outside every other suite's id ranges.
const poisonID uint32 = 999999

// runQuarantineFleet drives the target plus `peers` impaired neighbors —
// every session capturing its residual — and optionally a poisoned
// session whose tick probe panics at block 5. It returns the residuals of
// the healthy sessions (target first, then peers in id order) and the
// server for post-run inspection; the server is closed via t.Cleanup.
func runQuarantineFleet(t *testing.T, peers, blocks int, poison bool) ([][]float64, *Server) {
	t.Helper()
	srv := NewServer(Config{Shards: 4})
	t.Cleanup(func() { srv.Close() })
	p := lightProfile()
	residuals := make([][]float64, 0, peers+1)
	open := func(id uint32, faults bool) *simUser {
		dst := make([]float64, blocks*p.FrameSamples)
		residuals = append(residuals, dst)
		if _, err := srv.Open(id, p, WithResidual(dst)); err != nil {
			t.Fatal(err)
		}
		if faults {
			return newSimUser(t, id, p.FrameSamples, peerFaults(id))
		}
		return newSimUser(t, id, p.FrameSamples, targetFaults())
	}
	users := []*simUser{open(targetID, false)}
	for i := 0; i < peers; i++ {
		users = append(users, open(uint32(1000+i), true))
	}
	if poison {
		if _, err := srv.Open(poisonID, p, WithTickProbe(func(block int64) {
			if block == 5 {
				panic("poisoned session state")
			}
		})); err != nil {
			t.Fatal(err)
		}
		users = append(users, newSimUser(t, poisonID, p.FrameSamples, peerFaults(poisonID)))
	}
	for b := 0; b < blocks; b++ {
		var wg sync.WaitGroup
		for _, u := range users {
			wg.Add(1)
			go func(u *simUser) {
				defer wg.Done()
				for _, d := range u.tick() {
					srv.Ingest(d)
				}
			}(u)
		}
		wg.Wait()
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
	}
	return residuals, srv
}

// TestPoisonSessionContainment is the quarantine acceptance test: in a
// 1000-session fleet with one session that panics mid-tick, the other 999
// keep residuals bit-identical to a run where the poisoned session never
// existed, the process survives (under -race via CI), the panic is
// counted and retained, and the poisoned session alone stops ticking.
func TestPoisonSessionContainment(t *testing.T) {
	peers := 999 - 1 // target + peers = 999 healthy sessions
	const blocks = 16
	if testing.Short() || raceEnabled {
		peers = 99 - 1
	}
	want, _ := runQuarantineFleet(t, peers, blocks, false)
	got, srv := runQuarantineFleet(t, peers, blocks, true)
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("healthy session %d's residual diverged beside a poisoned peer", i)
		}
	}

	sess := srv.Lookup(poisonID)
	if sess == nil {
		t.Fatal("poisoned session vanished instead of quarantining")
	}
	if !sess.Quarantined() {
		t.Fatal("poisoned session not marked quarantined")
	}
	if lp := sess.LastPanic(); !strings.Contains(lp, "poisoned session state") {
		t.Fatalf("LastPanic = %q, want the recovered panic value", lp)
	}
	snap := srv.reg.Snapshot()
	if got := snap.Counters["fleet.quarantined"]; got != 1 {
		t.Fatalf("fleet.quarantined = %d, want 1", got)
	}
	// The session ticked blocks 0-4, panicked at 5, then stopped.
	if got := sess.reg.Snapshot().Counters["fleet.session.blocks"]; got != 5 {
		t.Fatalf("poisoned session ticked %d blocks after quarantine, want 5", got)
	}
}

// TestIngestPanicQuarantine pins the ingest-side recovery: a panic while
// decoding into a session poisons only that session — later datagrams for
// it are dropped and counted, ticks skip it, and its neighbors keep
// serving.
func TestIngestPanicQuarantine(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	p := lightProfile()
	sess, err := srv.Open(1, p, func(s *Session) { s.ingestProbe = func([]byte) { panic("poisoned decode") } })
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := srv.Open(2, p)
	if err != nil {
		t.Fatal(err)
	}
	u1 := newSimUser(t, 1, p.FrameSamples, targetFaults())
	u2 := newSimUser(t, 2, p.FrameSamples, targetFaults())
	for b := 0; b < 4; b++ {
		for _, u := range []*simUser{u1, u2} {
			for _, d := range u.tick() {
				if err := srv.Ingest(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.Quarantined() {
		t.Fatal("ingest panic did not quarantine the session")
	}
	if lp := sess.LastPanic(); !strings.Contains(lp, "ingest: poisoned decode") {
		t.Fatalf("LastPanic = %q", lp)
	}
	snap := srv.reg.Snapshot()
	if got := snap.Counters["fleet.quarantined"]; got != 1 {
		t.Fatalf("fleet.quarantined = %d, want 1", got)
	}
	if got := snap.Counters["fleet.quarantined_frames"]; got == 0 {
		t.Fatal("datagrams for the quarantined session were not counted dropped")
	}
	if got := sess.reg.Snapshot().Counters["fleet.session.blocks"]; got != 0 {
		t.Fatalf("quarantined session ticked %d blocks", got)
	}
	if got := healthy.reg.Snapshot().Counters["fleet.session.blocks"]; got != 4 {
		t.Fatalf("healthy neighbor ticked %d blocks, want 4", got)
	}
}

// TestUnknownSessionCountOnly is the churn regression: a frame racing its
// session's CloseSession must be counted fleet.unknown_session, not
// returned as an error — and later records in the same coalesced datagram
// must still land.
func TestUnknownSessionCountOnly(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	p := lightProfile()
	if _, err := srv.Open(1, p); err != nil {
		t.Fatal(err)
	}
	live, err := srv.Open(2, p)
	if err != nil {
		t.Fatal(err)
	}
	u1 := newSimUser(t, 1, p.FrameSamples, stream.LossParams{})
	u2 := newSimUser(t, 2, p.FrameSamples, stream.LossParams{})

	// The frame is generated while session 1 is open, but lands after the
	// close — the race under churn.
	inflight := u1.tick()
	if err := srv.CloseSession(1); err != nil {
		t.Fatal(err)
	}
	for _, d := range inflight {
		if err := srv.Ingest(d); err != nil {
			t.Fatalf("frame racing CloseSession returned error %v, want count-only", err)
		}
	}
	if got := srv.reg.Snapshot().Counters["fleet.unknown_session"]; got != 1 {
		t.Fatalf("fleet.unknown_session = %d, want 1", got)
	}

	// Coalesced batch: unknown record first, live record second — the live
	// one must still land.
	batch := append([]byte(nil), u1.tick()[0]...)
	batch = append(batch, u2.tick()[0]...)
	if err := srv.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if got := live.Stats().FramesReceived; got != 1 {
		t.Fatalf("live record after an unknown-session record did not land (frames=%d)", got)
	}
}
