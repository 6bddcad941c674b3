package fleet

import (
	"runtime"
	"testing"

	"mute/internal/stream"
)

// pregenerate renders `blocks` ticks of datagrams for `sessions` perfect
// (lossless) users up front, so the measured serving loop touches no
// test-side allocation: pregen[b] holds every session's datagram for
// block b.
func pregenerate(t *testing.T, srv *Server, p Profile, sessions, blocks int) [][][]byte {
	t.Helper()
	users := make([]*simUser, sessions)
	for i := range users {
		id := uint32(1 + i)
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
		users[i] = newSimUser(t, id, p.FrameSamples, stream.LossParams{})
	}
	pregen := make([][][]byte, blocks)
	for b := range pregen {
		for _, u := range users {
			pregen[b] = append(pregen[b], u.tick()...)
		}
	}
	return pregen
}

// TestServeSteadyStateAllocFree pins the serving path at zero
// steady-state allocations on both canceller kinds, with the sequential
// schedule and with the shard fan-out: envelope parse → pooled frame
// decode → jitter buffer → pipeline block, across a 16-session fleet,
// allocates nothing once warm.
func TestServeSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime's sync.Pool drops puts at random; pool-backed zero-alloc is unmeasurable under -race")
	}
	// testing.AllocsPerRun sets GOMAXPROCS to 1, and a GOMAXPROCS change
	// makes sync.Pool drop its per-P caches, so frames warmed under more
	// Ps would be lost and re-allocated in the measured loop. Pin one P
	// across warm-up and measurement alike.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, fdafBlock := range []int{0, 16} {
		for _, shards := range []int{1, 2} {
			p := lightProfile()
			p.FDAFBlock = fdafBlock
			serveAllocFree(t, p, shards)
		}
	}
}

// serveAllocFree measures one profile's steady-state serving allocations.
func serveAllocFree(t *testing.T, p Profile, shards int) {
	t.Helper()
	const sessions, runs, warmup = 16, 100, 8
	srv := NewServer(Config{Shards: shards})
	defer srv.Close()
	pregen := pregenerate(t, srv, p, sessions, warmup+1+runs)
	cursor := 0
	cycle := func() {
		for _, d := range pregen[cursor] {
			if err := srv.Ingest(d); err != nil {
				t.Error(err)
			}
		}
		if err := srv.ProcessTick(); err != nil {
			t.Error(err)
		}
		cursor++
	}
	for i := 0; i < warmup; i++ {
		cycle()
	}
	newsBefore, _, _ := srv.PoolStats()
	// AllocsPerRun calls cycle once to warm up, then `runs` measured times.
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("FDAFBlock=%d Shards=%d: steady-state serving allocates %.2f times per tick, want 0", p.FDAFBlock, shards, avg)
	}
	newsAfter, gets, puts := srv.PoolStats()
	if newsAfter != newsBefore {
		t.Fatalf("FDAFBlock=%d Shards=%d: frame pool grew %d → %d fresh frames after warmup — unbounded pool growth",
			p.FDAFBlock, shards, newsBefore, newsAfter)
	}
	if gets == 0 || puts == 0 {
		t.Fatal("pool saw no traffic — the measured loop bypassed frame recycling")
	}
}

// TestPoolBoundedAcrossChurn pins the recycling ledger: after every
// session closes, each frame the pool handed out has come back —
// including frames still sitting in jitter buffers at close, which
// Pipeline.Close drains through the release hook.
func TestPoolBoundedAcrossChurn(t *testing.T) {
	srv := NewServer(Config{})
	p := lightProfile()
	for i := 0; i < 50; i++ {
		id := uint32(1 + i%7)
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
		u := newSimUser(t, id, p.FrameSamples, stream.LossParams{})
		// Ingest more frames than we consume so teardown always finds
		// buffered frames to drain.
		for b := 0; b < 6; b++ {
			for _, d := range u.tick() {
				if err := srv.Ingest(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
		if err := srv.CloseSession(id); err != nil {
			t.Fatal(err)
		}
	}
	news, gets, puts := srv.PoolStats()
	if gets != puts {
		t.Fatalf("pool ledger unbalanced after full churn: %d gets, %d puts (%d fresh) — frames leaked",
			gets, puts, news)
	}
}

// TestFleetOpenCloseLeaksNoGoroutines churns 1000 session open/ingest/
// tick/close cycles between goroutine censuses: neither graph.Build nor
// the fleet layer may hide a goroutine behind a session.
func TestFleetOpenCloseLeaksNoGoroutines(t *testing.T) {
	srv := NewServer(Config{})
	p := lightProfile()
	before := stableGoroutines(t)
	for i := 0; i < 1000; i++ {
		id := uint32(1 + i)
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
		u := newSimUser(t, id, p.FrameSamples, stream.LossParams{})
		for _, d := range u.tick() {
			if err := srv.Ingest(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
		if err := srv.CloseSession(id); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Sessions() != 0 {
		t.Fatalf("%d sessions still open after churn", srv.Sessions())
	}
	after := stableGoroutines(t)
	if after > before {
		t.Fatalf("goroutines grew %d → %d over 1000 session open/close cycles", before, after)
	}
}

// TestSetupCacheShared pins the cross-session memoization: 32 sessions
// opened with the same estimation profile perform the secondary-path
// calibration once; every later open is a cache hit. The cached estimate
// must also leave sessions bit-identical (covered transitively by the
// isolation suite, which runs all sessions through the same cache).
func TestSetupCacheShared(t *testing.T) {
	sharedSetup.Reset()
	srv := NewServer(Config{})
	defer srv.Close()
	p := lightProfile()
	p.EstimateSecondary = true
	p.EstimateNoiseRMS = 0.001
	for i := 0; i < 32; i++ {
		if _, err := srv.Open(uint32(1+i), p); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := srv.CacheStats()
	if misses != 1 {
		t.Fatalf("secondary-path calibration ran %d times for one profile, want 1", misses)
	}
	if hits != 31 {
		t.Fatalf("cache hits = %d, want 31", hits)
	}
	// A distinct profile must not be conflated with the first.
	p2 := p
	p2.SecondaryIR = []float64{0.7, 0.3, 0.1}
	if _, err := srv.Open(1000, p2); err != nil {
		t.Fatal(err)
	}
	if _, misses := srv.CacheStats(); misses != 2 {
		t.Fatalf("distinct profile did not recompute (misses=%d, want 2)", misses)
	}
}
