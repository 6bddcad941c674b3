package fleet

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"mute/internal/audio"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

const (
	// loadLead is how many blocks ahead of the playout clock users
	// transmit — the priming that keeps jitter buffers nonempty.
	loadLead = 2
	// drainGrace is the paced loop's late-drain grace window. The pacing
	// contract: each block's socket drain normally runs until the next
	// block deadline — the pacing sleep and the ingest work are the same
	// wait — but when the loop is already past the deadline the drain
	// still gets at least drainGrace of wall time, so backlogged datagrams
	// keep flowing to the jitter buffers instead of piling up in the
	// socket while the loop catches up. Tightening it makes an overloaded
	// run shed ingest work sooner (more concealment, faster ticks);
	// loosening it favors frame delivery over catching up.
	drainGrace = 500 * time.Microsecond
	// warmupDrain is the per-block socket-drain window for the two warmup
	// blocks before the paced clock starts: long enough for the warmup
	// datagrams to cross the loopback socket, short enough not to delay
	// the measured window.
	warmupDrain = 2 * time.Millisecond
)

// LoadConfig configures a load-generation run: N simulated users, each a
// seeded relay with its own impairments, driving one session server.
type LoadConfig struct {
	// Sessions is the number of concurrent users (required, > 0).
	Sessions int
	// Duration is the paced run length in wall-clock time (paced mode).
	Duration time.Duration
	// Blocks is the tick count for throughput mode (default 200).
	Blocks int
	// Throughput selects unpaced mode: ticks run back to back in process
	// with no transport or sleeping — the raw capacity measurement. Paced
	// mode (the default) runs the real UDP transport at the audio clock
	// and measures block-deadline misses.
	Throughput bool
	// Profile is the per-session profile (zero fields take defaults).
	Profile Profile
	// Faults is the per-user impairment template; each user's link is
	// seeded with Faults.Seed plus its session id, so every user sees its
	// own deterministic loss pattern.
	Faults stream.LossParams
	// SkewPPM re-stamps every third user's capture clock by this many
	// parts per million, exercising the skew-tolerant demux.
	SkewPPM float64
	// Shards is the server's ProcessTick fan-out (default 1).
	Shards int
	// Lifecycle tunes the server's overload watchdog for the run; the zero
	// value arms it with defaults (see LifecycleConfig).
	Lifecycle LifecycleConfig
}

// LoadResult summarizes a load run.
type LoadResult struct {
	Sessions      int           `json:"sessions"`
	Blocks        int64         `json:"blocks"`
	SessionBlocks int64         `json:"session_blocks"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	// TickTime is the cumulative wall time inside ProcessTick — the CPU
	// the serving path actually spent.
	TickTime time.Duration `json:"tick_time_ns"`
	// SessionBlockNS is TickTime per session-block: the core capacity
	// number.
	SessionBlockNS float64 `json:"session_block_ns"`
	// SessionsPerCore is how many realtime sessions one core sustains at
	// this profile: block period / SessionBlockNS.
	SessionsPerCore float64 `json:"sessions_per_core"`
	// DeadlineMisses counts session-blocks whose tick finished after the
	// next block deadline (paced mode).
	DeadlineMisses int64 `json:"deadline_misses"`
	// MissRate is DeadlineMisses / SessionBlocks.
	MissRate float64 `json:"miss_rate"`
	// P99LatenessNS is the 99th-percentile tick completion lateness
	// relative to the next block deadline (<= 0 rounds to the histogram
	// floor; paced mode).
	P99LatenessNS float64 `json:"p99_lateness_ns"`
	FramesIn      int64   `json:"frames_in"`
	PoolNews      int64   `json:"pool_news"`
	PoolGets      int64   `json:"pool_gets"`
	PoolPuts      int64   `json:"pool_puts"`
}

// loadUser is one simulated relay: seeded audio, seeded impairments,
// optional oscillator skew, enveloped output. The tick path is
// allocation-free in steady state — at hundreds of users and a hundred
// blocks per second, per-datagram garbage on the generator side becomes
// GC pauses that masquerade as serving-side deadline misses.
type loadUser struct {
	id      uint32
	rng     *audio.RNG
	link    *stream.LossyLink
	seq     uint32
	clock   uint64
	frame   int
	skewPPM float64
	// ring holds the frames in flight through the impairment link: a
	// delayed frame's samples must survive untouched until the link
	// delivers it, so frame k writes ring[k % len(ring)] and the ring is
	// sized past the link's maximum delay.
	ring []stream.Frame
	// dgram is the reusable wire scratch; emit must not retain it.
	dgram []byte
}

func newLoadUser(id uint32, frame int, lp stream.LossParams, skewPPM float64) (*loadUser, error) {
	lp.Seed += uint64(id)
	link, err := stream.NewLossyLink(lp)
	if err != nil {
		return nil, err
	}
	// Max in-flight slots: reorder (1) + jitter (MaxJitter) + duplicate
	// tail (1), plus the current slot and safety.
	ring := make([]stream.Frame, lp.MaxJitter+4)
	for i := range ring {
		ring[i].Samples = make([]float64, frame)
	}
	return &loadUser{
		id:      id,
		rng:     audio.NewRNG(uint64(id)*0x9e3779b9 + 11),
		link:    link,
		frame:   frame,
		skewPPM: skewPPM,
		ring:    ring,
		dgram:   make([]byte, 0, MaxDatagram),
	}, nil
}

// tick runs one frame slot and calls emit for each datagram the user's
// link delivers. The datagram slice is reused across calls; emit must
// copy (a socket write or UnmarshalInto does).
func (u *loadUser) tick(emit func([]byte) error) error {
	f := &u.ring[int(u.seq)%len(u.ring)]
	for i := range f.Samples {
		f.Samples[i] = 0.4 * u.rng.Uniform()
	}
	ts := u.clock
	if u.skewPPM != 0 {
		ts = uint64(float64(u.clock) * (1 + u.skewPPM*1e-6))
	}
	f.Seq = u.seq
	f.Timestamp = ts
	u.seq++
	u.clock += uint64(u.frame)
	for _, g := range u.link.Transfer(f) {
		hdr := AppendEnvelope(u.dgram[:0], u.id, nil)
		d, err := g.AppendMarshal(hdr)
		if err != nil {
			return err
		}
		u.dgram = d
		if err := emit(d); err != nil {
			return err
		}
	}
	return nil
}

// batcher coalesces enveloped records into shared datagrams up to
// MaxDatagram, amortizing the per-datagram syscall across the sessions
// that tick together — on a single core, per-record sends are the load
// generator's dominant cost at fleet scale. The buffer is reused across
// flushes; out must not retain it.
type batcher struct {
	buf []byte
	out func([]byte) error
}

func newBatcher(out func([]byte) error) *batcher {
	return &batcher{buf: make([]byte, 0, MaxDatagram), out: out}
}

// add appends one enveloped record, flushing first when it would not fit
// the current datagram.
func (b *batcher) add(rec []byte) error {
	if len(b.buf) > 0 && len(b.buf)+len(rec) > MaxDatagram {
		if err := b.flush(); err != nil {
			return err
		}
	}
	b.buf = append(b.buf, rec...)
	return nil
}

// flush sends the pending datagram, if any.
func (b *batcher) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	err := b.out(b.buf)
	b.buf = b.buf[:0]
	return err
}

// RunLoad executes one load-generation run and returns its capacity
// summary.
func RunLoad(cfg LoadConfig) (*LoadResult, error) { return RunLoadInto(cfg, nil) }

// RunLoadInto is RunLoad with the run's full telemetry fan-in — server
// metrics plus every session registry, merged in session-id order —
// additionally folded into merged (when non-nil), for callers that want
// the metric detail behind the summary.
func RunLoadInto(cfg LoadConfig, merged *telemetry.Registry) (*LoadResult, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("fleet: load run needs Sessions > 0")
	}
	p, err := cfg.Profile.withDefaults()
	if err != nil {
		return nil, err
	}
	srv := NewServer(Config{Shards: cfg.Shards, Lifecycle: cfg.Lifecycle})
	defer srv.Close()
	users := make([]*loadUser, cfg.Sessions)
	for i := range users {
		id := uint32(1 + i)
		if _, err := srv.Open(id, p); err != nil {
			return nil, err
		}
		skew := 0.0
		if cfg.SkewPPM != 0 && i%3 == 0 {
			skew = cfg.SkewPPM
		}
		if users[i], err = newLoadUser(id, p.FrameSamples, cfg.Faults, skew); err != nil {
			return nil, err
		}
	}
	if cfg.Throughput {
		return runThroughput(srv, users, cfg, p, merged)
	}
	return runPaced(srv, users, cfg, p, merged)
}

// runThroughput drives ticks back to back with in-process ingest: the
// raw sessions-per-core measurement, no transport, no pacing.
func runThroughput(srv *Server, users []*loadUser, cfg LoadConfig, p Profile, merged *telemetry.Registry) (*LoadResult, error) {
	blocks := cfg.Blocks
	if blocks <= 0 {
		blocks = 200
	}
	ingest := func(d []byte) error { return srv.Ingest(d) }
	// Prime the jitter buffers so the first tick pops real audio.
	for l := 0; l < loadLead; l++ {
		for _, u := range users {
			if err := u.tick(ingest); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	var tickTime time.Duration
	for b := 0; b < blocks; b++ {
		for _, u := range users {
			if err := u.tick(ingest); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := srv.ProcessTick(); err != nil {
			return nil, err
		}
		tickTime += time.Since(t0)
	}
	return summarize(srv, cfg, p, int64(blocks), time.Since(start), tickTime, merged), nil
}

// runPaced drives the fleet over the real UDP transport at the audio
// clock, as a single-threaded event loop per block: send every user's
// (coalesced) datagrams, drain the server socket until the block
// deadline via a read deadline, then fire ProcessTick, recording how
// late it finished against the next deadline. Draining in the pacing
// gap instead of from a reader goroutine keeps ingest work out of the
// tick's way — on one core a concurrent reader preempts ProcessTick
// mid-block and its cache pollution shows up as tick time.
func runPaced(srv *Server, users []*loadUser, cfg LoadConfig, p Profile, merged *telemetry.Registry) (*LoadResult, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("fleet: paced load run needs Duration > 0")
	}
	fs := int64(p.SampleRate)
	frame := int64(p.FrameSamples)
	totalBlocks := cfg.Duration.Nanoseconds() * fs / (frame * int64(time.Second))
	if totalBlocks < 1 {
		totalBlocks = 1
	}

	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rx, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	defer rx.Close()
	rx.SetReadBuffer(4 << 20)
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return nil, err
	}
	defer tx.Close()
	tx.SetWriteBuffer(4 << 20)

	// drainUntil ingests arriving datagrams until due: the pacing sleep
	// and the ingest work are the same wait. When the loop is running
	// late the grace window (drainGrace) still drains the backlog, so
	// frames keep flowing to the jitter buffers instead of piling up in
	// the socket — an expired read deadline would otherwise refuse even
	// buffered data.
	buf := make([]byte, MaxDatagram)
	drainUntil := func(due time.Time) {
		if grace := time.Now().Add(drainGrace); due.Before(grace) {
			due = grace
		}
		rx.SetReadDeadline(due)
		for {
			// ReadFromUDPAddrPort keeps the read alloc-free (ReadFromUDP
			// builds a *UDPAddr per datagram — steady garbage that becomes
			// GC mark work stealing the core from ticks).
			n, _, err := rx.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // deadline reached
			}
			srv.Ingest(buf[:n]) // bad datagrams are counted, not fatal
		}
	}

	// Coalesce the fleet's records into shared datagrams: one send per
	// ~MaxDatagram of frames instead of one per user per block.
	batch := newBatcher(func(d []byte) error {
		_, err := tx.Write(d)
		return err
	})
	// Prime: users run Lead slots ahead of the playout clock throughout.
	for l := 0; l < loadLead; l++ {
		for _, u := range users {
			if err := u.tick(batch.add); err != nil {
				return nil, err
			}
		}
		if err := batch.flush(); err != nil {
			return nil, err
		}
	}
	// Warm the serving path before the clock starts: the first ticks fault
	// in every session's filter state and adaptation buffers (tens of MB
	// at fleet scale), a one-time cost that would otherwise cascade into
	// deadline misses charged to the steady state being measured. Each
	// warmup block is replaced by an extra user slot so the fleet keeps
	// its Lead blocks of transport headroom.
	for w := 0; w < 2; w++ {
		for _, u := range users {
			if err := u.tick(batch.add); err != nil {
				return nil, err
			}
		}
		if err := batch.flush(); err != nil {
			return nil, err
		}
		drainUntil(time.Now().Add(warmupDrain))
		if err := srv.ProcessTick(); err != nil {
			return nil, err
		}
	}
	runtime.GC() // start the measured window with a clean heap
	start := time.Now()
	var tickTime time.Duration
	for n := int64(0); n < totalBlocks; n++ {
		for _, u := range users {
			if err := u.tick(batch.add); err != nil {
				return nil, err
			}
		}
		if err := batch.flush(); err != nil {
			return nil, err
		}
		// Block n's data is due at deadline n+1; the tick must then finish
		// before deadline n+2 or every session in it missed its block.
		drainUntil(graph.BlockDeadline(start, n+1, frame, fs))
		t0 := time.Now()
		if err := srv.ProcessTick(); err != nil {
			return nil, err
		}
		done := time.Now()
		tickTime += done.Sub(t0)
		srv.ObserveTick(done.Sub(graph.BlockDeadline(start, n+2, frame, fs)).Nanoseconds())
	}
	elapsed := time.Since(start)
	return summarize(srv, cfg, p, totalBlocks, elapsed, tickTime, merged), nil
}

func summarize(srv *Server, cfg LoadConfig, p Profile, blocks int64, elapsed, tickTime time.Duration, merged *telemetry.Registry) *LoadResult {
	if merged == nil {
		merged = telemetry.NewRegistry()
	}
	srv.MergeTelemetry(merged)
	snap := merged.Snapshot()
	news, gets, puts := srv.PoolStats()
	sessionBlocks := blocks * int64(cfg.Sessions)
	res := &LoadResult{
		Sessions:       cfg.Sessions,
		Blocks:         blocks,
		SessionBlocks:  sessionBlocks,
		Elapsed:        elapsed,
		TickTime:       tickTime,
		DeadlineMisses: snap.Counters["fleet.deadline_miss"],
		FramesIn:       snap.Counters["fleet.frames_in"],
		PoolNews:       news,
		PoolGets:       gets,
		PoolPuts:       puts,
	}
	if sessionBlocks > 0 {
		res.SessionBlockNS = float64(tickTime.Nanoseconds()) / float64(sessionBlocks)
		res.MissRate = float64(res.DeadlineMisses) / float64(sessionBlocks)
	}
	if res.SessionBlockNS > 0 {
		periodNS := float64(p.FrameSamples) / p.SampleRate * 1e9
		res.SessionsPerCore = periodNS / res.SessionBlockNS
	}
	if h, ok := snap.Histograms["fleet.tick_lateness_ns"]; ok && h.Count > 0 {
		res.P99LatenessNS = h.Quantile(0.99)
	}
	return res
}
