package fleet

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"mute/internal/telemetry"
)

// TestCrossSessionIsolation is the tentpole contract: a session's
// residual is bit-identical whether it runs alone or beside 1, 64, or
// 1000 impaired peers. Each peer carries its own seeded loss, bursts,
// reordering, a scheduled outage, and (every third peer) a 150 ppm
// re-stamping skew — none of which may perturb the target by one bit,
// because sessions share nothing mutable. Ingest runs concurrently from
// one goroutine per user, so -race sweeps the demux while the comparison
// stays exact.
func TestCrossSessionIsolation(t *testing.T) {
	const blocks = 24
	want := runFleet(t, 0, 1, blocks, nil)
	peerCounts := []int{1, 64, 1000}
	if testing.Short() {
		peerCounts = []int{1, 64}
	}
	for _, peers := range peerCounts {
		got := runFleet(t, peers, 1, blocks, nil)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d peers: residual diverges at sample %d: %g != %g",
						peers, i, got[i], want[i])
				}
			}
			t.Fatalf("%d peers: residual diverges (length %d vs %d)", peers, len(got), len(want))
		}
	}
}

// TestSchedulerDeterminism pins the shard contract: ProcessTick's output
// is identical for any shard count and any GOMAXPROCS, because sessions
// are shared-nothing — the partitioning only changes which goroutine
// touches which session, never what any session computes.
func TestSchedulerDeterminism(t *testing.T) {
	const peers, blocks = 32 - 1, 16
	do := func(shards, procs int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return runFleet(t, peers, shards, blocks, nil)
	}
	base := do(1, 1)
	for _, cfg := range []struct{ shards, procs int }{{1, 2}, {4, 1}, {4, 2}} {
		if got := do(cfg.shards, cfg.procs); !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d procs=%d: residual differs from sequential run",
				cfg.shards, cfg.procs)
		}
	}
}

// TestTelemetryFanInDeterministic pins the metric side of the shard
// contract: the fleet-wide merged counters are identical for any shard
// count, because MergeTelemetry folds session registries in ascending
// session-id order.
func TestTelemetryFanInDeterministic(t *testing.T) {
	counters := func(shards int) map[string]int64 {
		srv := NewServer(Config{Shards: shards})
		defer srv.Close()
		p := lightProfile()
		if _, err := srv.Open(targetID, p); err != nil {
			t.Fatal(err)
		}
		users := []*simUser{newSimUser(t, targetID, p.FrameSamples, targetFaults())}
		for i := 0; i < 15; i++ {
			id := uint32(1000 + i)
			if _, err := srv.Open(id, p); err != nil {
				t.Fatal(err)
			}
			users = append(users, newSimUser(t, id, p.FrameSamples, peerFaults(id)))
		}
		for b := 0; b < 12; b++ {
			for _, u := range users {
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
		merged := telemetry.NewRegistry()
		srv.MergeTelemetry(merged)
		return merged.Snapshot().Counters
	}
	want := counters(1)
	if want["fleet.blocks"] != 16*12 {
		t.Fatalf("fleet.blocks = %d, want %d", want["fleet.blocks"], 16*12)
	}
	if want["fleet.frames_in"] == 0 || want["fleet.session.frames_in"] != want["fleet.frames_in"] {
		t.Fatalf("demux counters inconsistent: %v", want)
	}
	for _, shards := range []int{2, 4} {
		got := counters(shards)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: merged counters differ:\n got %v\nwant %v", shards, got, want)
		}
	}
}

// TestPoolPoisoningNoStaleLeak fills every freed frame's full sample
// capacity with NaN before it re-enters the pool. If any consumer read a
// recycled frame's stale samples — a decode trusting a leftover length,
// a jitter buffer handing out a released frame — the NaN would propagate
// through the canceller into some session's residual and stick. The
// poisoned run must match the clean run bit for bit.
func TestPoolPoisoningNoStaleLeak(t *testing.T) {
	const blocks = 24
	want := runFleet(t, 8, 1, blocks, nil)
	got := runFleet(t, 8, 1, blocks, func(s *Server) { s.pool.poison = math.NaN() })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("poisoning freed frames changed a session residual: stale pooled samples leaked")
	}
	for i, v := range got {
		if math.IsNaN(v) {
			t.Fatalf("NaN poison reached the residual at sample %d", i)
		}
	}
}

// TestSessionAccounting sanity-checks the per-session counters the
// isolation runs rely on: the target session saw its own frames and
// concealed its own losses, visible through the session handle.
func TestSessionAccounting(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	p := lightProfile()
	sess, err := srv.Open(targetID, p)
	if err != nil {
		t.Fatal(err)
	}
	u := newSimUser(t, targetID, p.FrameSamples, targetFaults())
	for b := 0; b < 32; b++ {
		for _, d := range u.tick() {
			if err := srv.Ingest(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.FramesReceived == 0 {
		t.Fatal("no frames reached the session")
	}
	if st.SamplesConcealed == 0 {
		t.Fatal("a lossy link with an outage concealed nothing — faults not applied")
	}
	if got := sess.pl.Samples(); got != 32*int64(p.FrameSamples) {
		t.Fatalf("session processed %d samples, want %d", got, 32*p.FrameSamples)
	}
	snap := sess.reg.Snapshot()
	if snap.Counters["fleet.session.blocks"] != 32 {
		t.Fatalf("session block counter = %d, want 32", snap.Counters["fleet.session.blocks"])
	}
}
