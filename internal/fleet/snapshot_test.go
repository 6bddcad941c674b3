package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"mute/internal/stream"
)

// snapshotFixture builds a two-session snapshot exercising the wire
// format's variable parts: one time-domain session with a room IR and
// estimation flags, one FDAF session with empty optional fields.
func snapshotFixture() *FleetSnapshot {
	p1 := lightProfile()
	p1.RoomIR = []float64{0.5, 0.25}
	p1.EstimateSecondary = true
	p1.EstimateNoiseRMS = 0.001
	p1.LossBlind = true
	p2 := lightProfile()
	p2.FDAFBlock = 16
	return &FleetSnapshot{
		Version: snapshotVersion,
		Sessions: []SessionSnapshot{
			{ID: 7, Profile: p1, PlayoutClock: 4000, Weights: []float64{0.1, -0.2, 0.3}},
			{ID: 9, Profile: p2, PlayoutClock: 12345, DriftPPM: 0, Weights: []float64{1, 2, 3, 4}},
		},
	}
}

// TestSnapshotRoundTrip pins Marshal → ParseSnapshot as the identity on
// every field, including profile slices and flags.
func TestSnapshotRoundTrip(t *testing.T) {
	want := snapshotFixture()
	wire, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnapshot(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotTamperRejected pins validation: truncation anywhere, magic
// or version skew, and a cross-session id swap (which breaks the
// id-bound profile fingerprint) must all reject the snapshot.
func TestSnapshotTamperRejected(t *testing.T) {
	wire, err := snapshotFixture().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSnapshot(wire[:0]); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	for _, cut := range []int{3, snapshotHeader, snapshotHeader + 3, len(wire) / 2, len(wire) - 1} {
		if _, err := ParseSnapshot(wire[:cut]); err == nil {
			t.Fatalf("snapshot truncated to %d bytes accepted", cut)
		}
	}
	bad := append([]byte(nil), wire...)
	bad[0] ^= 0xff
	if _, err := ParseSnapshot(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), wire...)
	bad[2] = snapshotVersion + 1
	if _, err := ParseSnapshot(bad); err == nil {
		t.Fatal("version-skewed snapshot accepted")
	}
	// Swap the two records' session ids in place: each record's id is the
	// first 4 bytes after its length prefix. The fingerprints no longer
	// match the ids they were computed against.
	bad = append([]byte(nil), wire...)
	rec1 := snapshotHeader + 4
	rec1Len := int(binary.BigEndian.Uint32(bad[snapshotHeader:]))
	rec2 := rec1 + rec1Len + 4
	var tmp [4]byte
	copy(tmp[:], bad[rec1:rec1+4])
	copy(bad[rec1:rec1+4], bad[rec2:rec2+4])
	copy(bad[rec2:rec2+4], tmp[:])
	if _, err := ParseSnapshot(bad); err == nil {
		t.Fatal("cross-session id swap accepted: fingerprint is not binding the id")
	}
	// Trailing garbage after the last record is also a malformed snapshot.
	if _, err := ParseSnapshot(append(append([]byte(nil), wire...), 0xaa)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzSnapshotRoundTrip hardens the handoff wire format: arbitrary bytes
// must never panic the parser, and anything the parser accepts must
// re-marshal and re-parse to the same snapshot (the parse⇄marshal
// fixpoint).
func FuzzSnapshotRoundTrip(f *testing.F) {
	wire, err := snapshotFixture().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)               // valid
	f.Add(wire[:len(wire)/3]) // truncated
	skew := append([]byte(nil), wire...)
	skew[2] = snapshotVersion + 7 // version-skewed
	f.Add(skew)
	swapped := append([]byte(nil), wire...)
	rec1 := snapshotHeader + 4
	rec1Len := int(binary.BigEndian.Uint32(swapped[snapshotHeader:]))
	rec2 := rec1 + rec1Len + 4
	var tmp [4]byte
	copy(tmp[:], swapped[rec1:rec1+4])
	copy(swapped[rec1:rec1+4], swapped[rec2:rec2+4])
	copy(swapped[rec2:rec2+4], tmp[:]) // cross-session id swap
	f.Add(swapped)
	f.Add([]byte{0x4d, 0x53, 1, 0, 0, 0, 0}) // empty but well-formed
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ParseSnapshot(data)
		if err != nil {
			return
		}
		wire, err := snap.Marshal()
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-marshal: %v", err)
		}
		again, err := ParseSnapshot(wire)
		if err != nil {
			t.Fatalf("re-marshaled snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatal("parse⇄marshal fixpoint violated")
		}
	})
}

// TestDrainStopsAdmissionsAndSkipsQuarantined pins Drain's contract: the
// first call closes admissions (typed ErrDraining), every healthy
// session is captured and counted fleet.drained, and a quarantined
// session is closed but never exported.
func TestDrainStopsAdmissionsAndSkipsQuarantined(t *testing.T) {
	srv := NewServer(Config{})
	p := lightProfile()
	for id := uint32(1); id <= 3; id++ {
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
	}
	srv.Lookup(2).quarantine("poisoned")
	snap, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sessions) != 2 || snap.Sessions[0].ID != 1 || snap.Sessions[1].ID != 3 {
		t.Fatalf("drained sessions %+v, want healthy ids 1 and 3", snap.Sessions)
	}
	if !srv.draining.Load() {
		t.Fatal("server not marked draining")
	}
	if _, err := srv.Open(9, p); !errors.Is(err, ErrDraining) {
		t.Fatalf("Open on a draining server returned %v, want ErrDraining", err)
	}
	if openSessions(srv) != 0 {
		t.Fatalf("%d sessions still open after drain", openSessions(srv))
	}
	if got := srv.reg.Snapshot().Counters["fleet.drained"]; got != 2 {
		t.Fatalf("fleet.drained = %d, want 2", got)
	}
	_, gets, puts := srv.PoolStats()
	if gets != puts {
		t.Fatalf("drain leaked pooled frames: %d gets, %d puts", gets, puts)
	}
}

// TestDrainContextAbort pins the partial-drain contract: a canceled
// context stops the drain between sessions, the captured prefix is
// returned, and the rest keep serving.
func TestDrainContextAbort(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	p := lightProfile()
	for id := uint32(1); id <= 4; id++ {
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap, err := srv.Drain(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with canceled context returned %v", err)
	}
	if len(snap.Sessions) != 0 {
		t.Fatalf("canceled-before-start drain captured %d sessions", len(snap.Sessions))
	}
	if openSessions(srv) != 4 {
		t.Fatalf("canceled drain closed sessions: %d left, want 4", openSessions(srv))
	}
}

// udpPipe is a loopback UDP path into a server: the test writes user
// datagrams to tx, reads them back off rx, and ingests them — the same
// socket hop the real fleet transport makes.
type udpPipe struct {
	rx, tx *net.UDPConn
	buf    []byte
}

func newUDPPipe(t *testing.T) *udpPipe {
	t.Helper()
	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rx, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		rx.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close(); tx.Close() })
	return &udpPipe{rx: rx, tx: tx, buf: make([]byte, MaxDatagram)}
}

// relay writes each datagram to the socket, reads it back, and ingests it
// into srv. Links are lossless in this test, so counts match exactly.
func (p *udpPipe) relay(t *testing.T, srv *Server, datagrams [][]byte) {
	t.Helper()
	for _, d := range datagrams {
		if _, err := p.tx.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	p.rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	for range datagrams {
		n, err := p.rx.Read(p.buf)
		if err != nil {
			t.Fatalf("UDP read: %v", err)
		}
		if err := srv.Ingest(p.buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRollingRestartUDP is the handoff acceptance test: a fleet serving
// over real UDP sockets is drained mid-run, its snapshot is marshaled,
// parsed, and adopted by a second server on a fresh socket, and every
// session resumes. The target session's residual power over the window
// ending 3 s (300 blocks) after the handoff must be within 1 dB of an
// uninterrupted run, and the whole exercise must leak no goroutines.
func TestRollingRestartUDP(t *testing.T) {
	p := lightProfile()
	const (
		sessions = 8
		handoff  = 50  // blocks served by server A
		recovery = 300 // 3 s of 10 ms blocks after the handoff
		window   = 100 // power-comparison window at the end of recovery
		lead     = 2   // blocks users run ahead of playout
	)
	total := handoff + recovery

	run := func(restart bool) []float64 {
		srvA := NewServer(Config{})
		defer srvA.Close()
		residual := make([]float64, total*p.FrameSamples)
		users := make([]*simUser, sessions)
		for i := range users {
			id := uint32(1 + i)
			var opts []SessionOption
			if id == 1 {
				opts = append(opts, WithResidual(residual))
			}
			if _, err := srvA.Open(id, p, opts...); err != nil {
				t.Fatal(err)
			}
			users[i] = newSimUser(t, id, p.FrameSamples, stream.LossParams{})
		}
		pipe := newUDPPipe(t)
		srv := srvA
		tick := func() [][]byte {
			var out [][]byte
			for _, u := range users {
				out = append(out, u.tick()...)
			}
			return out
		}
		for l := 0; l < lead; l++ {
			pipe.relay(t, srv, tick())
		}
		var srvB *Server
		for b := 0; b < total; b++ {
			if restart && b == handoff {
				snap, err := srv.Drain(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				wire, err := snap.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				parsed, err := ParseSnapshot(wire)
				if err != nil {
					t.Fatal(err)
				}
				if len(parsed.Sessions) != sessions {
					t.Fatalf("drained %d sessions, want %d", len(parsed.Sessions), sessions)
				}
				srvB = NewServer(Config{})
				defer srvB.Close()
				err = srvB.Adopt(parsed, func(id uint32) []SessionOption {
					if id == 1 {
						return []SessionOption{WithResidual(residual[b*p.FrameSamples:])}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				srv = srvB
				pipe = newUDPPipe(t) // the new process listens on a new socket
			}
			pipe.relay(t, srv, tick())
			if err := srv.ProcessTick(); err != nil {
				t.Fatal(err)
			}
		}
		if restart && openSessions(srv) != sessions {
			t.Fatalf("adopted server serves %d sessions, want %d", openSessions(srv), sessions)
		}
		return residual
	}

	before := stableGoroutines(t)
	base := run(false)
	restarted := run(true)
	after := stableGoroutines(t)
	if after > before {
		t.Fatalf("rolling restart leaked goroutines: %d → %d", before, after)
	}

	power := func(res []float64, fromBlock, blocks int) float64 {
		lo, hi := fromBlock*p.FrameSamples, (fromBlock+blocks)*p.FrameSamples
		var sum float64
		for _, v := range res[lo:hi] {
			sum += v * v
		}
		return sum / float64(hi-lo)
	}
	from := handoff + recovery - window
	pBase := power(base, from, window)
	pRest := power(restarted, from, window)
	dB := 10 * math.Log10(pRest/pBase)
	t.Logf("residual power %d blocks after handoff: restarted %.3g vs uninterrupted %.3g (%+.2f dB)",
		recovery-window, pRest, pBase, dB)
	if math.Abs(dB) > 1 {
		t.Fatalf("restarted fleet's residual is %.2f dB off the uninterrupted run 3 s after handoff, want within 1 dB", dB)
	}
}
