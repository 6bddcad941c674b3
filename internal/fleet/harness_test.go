package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"mute/internal/audio"
	"mute/internal/stream"
)

// simUser is one simulated relay in the load harness: it synthesizes a
// seeded audio stream, frames it, pushes the frames through a seeded
// impairment link, and envelopes whatever the link delivers for its
// session. Identical (id, faults, skew) reproduce identical datagrams,
// which is what lets the isolation suite compare runs bit for bit.
type simUser struct {
	t       *testing.T
	id      uint32
	rng     *audio.RNG
	link    *stream.LossyLink
	seq     uint32
	clock   uint64
	frame   int
	skewPPM float64
}

func newSimUser(t *testing.T, id uint32, frame int, lp stream.LossParams) *simUser {
	t.Helper()
	link, err := stream.NewLossyLink(lp)
	if err != nil {
		t.Fatal(err)
	}
	return &simUser{
		t:     t,
		id:    id,
		rng:   audio.NewRNG(uint64(id)*0x9e3779b9 + 11),
		link:  link,
		frame: frame,
	}
}

// tick emits the enveloped datagrams this user's relay delivers in one
// frame slot (zero or more, depending on the link's mood).
func (u *simUser) tick() [][]byte {
	samples := make([]float64, u.frame)
	for i := range samples {
		samples[i] = 0.4 * u.rng.Uniform()
	}
	ts := u.clock
	if u.skewPPM != 0 {
		// A detuned relay oscillator re-stamps the capture clock.
		ts = uint64(float64(u.clock) * (1 + u.skewPPM*1e-6))
	}
	f := &stream.Frame{Seq: u.seq, Timestamp: ts, Samples: samples}
	u.seq++
	u.clock += uint64(u.frame)
	var out [][]byte
	for _, g := range u.link.Transfer(f) {
		d, err := marshalEnvelope(u.id, g)
		if err != nil {
			u.t.Error(err)
			return nil
		}
		out = append(out, d)
	}
	return out
}

// lightProfile is the isolation suite's session shape: small taps so a
// thousand-session run stays fast under -race, every other knob default.
func lightProfile() Profile {
	p := DefaultProfile()
	p.CausalTaps = 16
	p.MaxNonCausalTaps = 8
	p.JitterDepth = 16
	return p
}

// targetID — the session whose residual the isolation suite pins — is
// shared with the chaos harness (chaos.go).

func targetFaults() stream.LossParams {
	return stream.LossParams{
		Seed: 7, Loss: 0.08, MeanBurst: 2,
		Duplicate: 0.02, Reorder: 0.05, JitterProb: 0.1, MaxJitter: 2,
		Outages: []stream.Outage{{StartSlot: 12, DurationSlots: 3}},
	}
}

func peerFaults(id uint32) stream.LossParams {
	return stream.LossParams{
		Seed: uint64(id), Loss: 0.1, MeanBurst: 3,
		Duplicate: 0.01, Reorder: 0.05, JitterProb: 0.05, MaxJitter: 2,
		Outages: []stream.Outage{{StartSlot: uint64(8 + id%16), DurationSlots: 4}},
	}
}

// runFleet drives a fleet of the target session plus `peers` impaired
// neighbors for `blocks` ticks and returns the target's residual. Every
// user's datagrams are ingested from its own goroutine each block (a
// WaitGroup barrier keeps the block cadence), so -race sweeps the
// concurrent demux while the outputs stay deterministic.
func runFleet(t *testing.T, peers, shards, blocks int, tweak func(*Server)) []float64 {
	t.Helper()
	srv := NewServer(Config{Shards: shards})
	defer srv.Close()
	if tweak != nil {
		tweak(srv)
	}
	p := lightProfile()
	residual := make([]float64, blocks*p.FrameSamples)
	if _, err := srv.Open(targetID, p, WithResidual(residual)); err != nil {
		t.Fatal(err)
	}
	users := []*simUser{newSimUser(t, targetID, p.FrameSamples, targetFaults())}
	for i := 0; i < peers; i++ {
		id := uint32(1000 + i)
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
		u := newSimUser(t, id, p.FrameSamples, peerFaults(id))
		if i%3 == 0 {
			u.skewPPM = 150
		}
		users = append(users, u)
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
	return residual
}

// stableGoroutines samples runtime.NumGoroutine until two consecutive
// reads agree (runtime helpers wind down asynchronously).
func stableGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	prev := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// marshalEnvelope encodes frame f for session id into a fresh datagram.
func marshalEnvelope(id uint32, f *stream.Frame) ([]byte, error) {
	wire, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	return AppendEnvelope(make([]byte, 0, EnvelopeOverhead+len(wire)), id, wire), nil
}

// openSessions returns how many sessions the server holds open.
func openSessions(s *Server) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}
