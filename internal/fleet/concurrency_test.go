package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mute/internal/stream"
)

// TestConcurrentServerOps sweeps the server's RWMutex contract under true
// concurrency: Open, CloseSession, Ingest, ProcessTick, ObserveTick, and
// Lookup all racing from their own goroutines. The test asserts no
// deadlock, no lost session, and a balanced frame pool — the data-race
// half of the contract is what -race itself checks (CI runs this package
// with -race -count=2).
func TestConcurrentServerOps(t *testing.T) {
	const (
		churners = 4
		rounds   = 200
	)
	srv := NewServer(Config{Shards: 4})
	p := lightProfile()
	// A stable session keeps traffic flowing through every tick while the
	// churners reshape the map around it.
	if _, err := srv.Open(targetID, p); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churners: open → close their own id range, racing each other.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := uint32(10000 + c*rounds + i)
				if _, err := srv.Open(id, p); err != nil {
					// The ladder never sheds here and nothing drains; any
					// refusal is a bug.
					t.Errorf("churner open %d: %v", id, err)
					return
				}
				if srv.Lookup(id) == nil {
					t.Errorf("session %d not visible after Open", id)
					return
				}
				if err := srv.CloseSession(id); err != nil {
					t.Errorf("churner close %d: %v", id, err)
					return
				}
			}
		}(c)
	}
	// Ingester: streams the stable session's frames plus deliberate
	// unknown-session and malformed datagrams.
	wg.Add(1)
	go func() {
		defer wg.Done()
		u := newSimUser(t, targetID, p.FrameSamples, targetFaults())
		for !stop.Load() {
			for _, d := range u.tick() {
				if err := srv.Ingest(d); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
			srv.Ingest(AppendEnvelope(nil, 424242, []byte{1, 2, 3})) // unknown id
			srv.Ingest([]byte{0xba, 0xad})                           // bad envelope
		}
	}()
	// Ticker: drives the fleet and the watchdog concurrently with all of
	// the above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := srv.ProcessTick(); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
			srv.ObserveTick(int64(i%3-1) * 100_000)
		}
	}()

	// The churners run to completion regardless of stop; flipping it ends
	// the open-ended ingest/tick loops, and wg.Wait then covers all six
	// goroutines.
	stop.Store(true)
	wg.Wait()

	if srv.Lookup(targetID) == nil {
		t.Fatal("stable session lost during churn")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, gets, puts := srv.PoolStats()
	if gets != puts {
		t.Fatalf("frame pool unbalanced after concurrent churn: %d gets, %d puts", gets, puts)
	}
}

// TestChurnSoak10k is the satellite soak: 10k session open/close cycles
// with live traffic, asserting the frame pool ledger balances and the
// goroutine census is flat — no leak hides behind a session.
func TestChurnSoak10k(t *testing.T) {
	cycles := 10000
	if testing.Short() || raceEnabled {
		cycles = 1000
	}
	srv := NewServer(Config{})
	defer srv.Close()
	p := lightProfile()
	before := stableGoroutines(t)
	for i := 0; i < cycles; i++ {
		id := uint32(1 + i%97)
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
		u := newSimUser(t, id, p.FrameSamples, stream.LossParams{})
		for _, d := range u.tick() {
			if err := srv.Ingest(d); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 0 {
			if err := srv.ProcessTick(); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.CloseSession(id); err != nil {
			t.Fatal(err)
		}
	}
	if openSessions(srv) != 0 {
		t.Fatalf("%d sessions open after soak", openSessions(srv))
	}
	_, gets, puts := srv.PoolStats()
	if gets != puts {
		t.Fatalf("pool ledger unbalanced after %d cycles: %d gets, %d puts", cycles, gets, puts)
	}
	after := stableGoroutines(t)
	if after > before {
		t.Fatalf("goroutines grew %d → %d over %d open/close cycles", before, after, cycles)
	}
}

// TestConcurrentDrainVsServing races Drain against live Ingest and
// ProcessTick traffic: the drain must capture every healthy session
// exactly once while ticks and ingest keep running, and late Opens must
// fail with a typed lifecycle error rather than slipping in.
func TestConcurrentDrainVsServing(t *testing.T) {
	srv := NewServer(Config{Shards: 2})
	p := lightProfile()
	const sessions = 32
	for i := 0; i < sessions; i++ {
		if _, err := srv.Open(uint32(1+i), p); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		u := newSimUser(t, 1, p.FrameSamples, stream.LossParams{})
		for !stop.Load() {
			for _, d := range u.tick() {
				srv.Ingest(d) // unknown-session once drained: counted, not fatal
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := srv.ProcessTick(); err != nil {
				t.Errorf("tick during drain: %v", err)
				return
			}
		}
	}()
	snap, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(999, p); !errors.Is(err, ErrDraining) {
		t.Errorf("Open during drain returned %v, want ErrDraining", err)
	}
	stop.Store(true)
	wg.Wait()
	if len(snap.Sessions) != sessions {
		t.Fatalf("drain captured %d sessions, want %d", len(snap.Sessions), sessions)
	}
	seen := map[uint32]bool{}
	for _, ss := range snap.Sessions {
		if seen[ss.ID] {
			t.Fatalf("session %d drained twice", ss.ID)
		}
		seen[ss.ID] = true
	}
	_, gets, puts := srv.PoolStats()
	if gets != puts {
		t.Fatalf("pool unbalanced after concurrent drain: %d gets, %d puts", gets, puts)
	}
}
