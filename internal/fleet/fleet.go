// Package fleet is the session server: one process multiplexing thousands
// of concurrent relay→ear cancellation sessions, each an independent
// instance of the same pipeline graph the simulator and the live CLIs
// run (graph.Build).
//
// The design is shared-nothing per session: every session owns its
// jitter buffer, its canceller state, its acoustic leg, and its
// telemetry registry, so no lock is taken on the per-sample path and a
// session's residual is bit-identical whether it runs alone or beside a
// thousand peers (pinned by the isolation suite). What *is* shared is
// deliberately read-only or pooled:
//
//   - frame buffers cycle through a sync.Pool (framePool) — the demux
//     decodes into a pooled frame, the jitter buffer's release hook hands
//     consumed frames back, and the steady-state serving path allocates
//     nothing;
//   - expensive per-profile setup (secondary-path calibration, room IR
//     pre-renders) is memoized across sessions by content hash (memo, a
//     dsp.Memo like the simulator's render cache);
//   - one server socket carries every session's frames, demultiplexed by
//     the fleet envelope's session id.
//
// Concurrency contract: Ingest and ProcessTick hold the server's read
// lock, Open/Close hold the write lock, so sessions never change shape
// mid-tick. ProcessTick drives sessions in ascending session-id order —
// sequentially with Shards <= 1, or partitioned across shard goroutines
// otherwise; either way the outputs are identical because sessions share
// no mutable state.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// Profile is the per-session acoustic and canceller configuration. The
// zero value is not usable; DefaultProfile returns the serving defaults
// (light taps sized for thousands of sessions per core), and any field
// left zero in a caller's profile inherits the default.
type Profile struct {
	// SampleRate is the session clock in Hz (default 8000).
	SampleRate float64
	// FrameSamples is the transport frame and processing block size
	// (default 80 = 10 ms at 8 kHz).
	FrameSamples int
	// Lookahead is the acoustic lookahead in samples (default 64 = 8 ms).
	Lookahead int
	// JitterDepth bounds the session's jitter buffer in frames
	// (default 32).
	JitterDepth int
	// CausalTaps is LANC's causal filter length (default
	// core.EarCausalTaps, sized to the demo ear's channel: the reference
	// alignment leaves no delay for the taps to model).
	CausalTaps int
	// MaxNonCausalTaps caps the planned non-causal taps (default 16).
	MaxNonCausalTaps int
	// Mu is the adaptation step (default 0.1).
	Mu float64
	// SecondaryIR is the true speaker→error-mic chain (default
	// core.EarSecondaryPath, the live demo's).
	SecondaryIR []float64
	// ChannelIR shapes the derived acoustic leg (default core.EarChannel,
	// the live demo's multipath).
	ChannelIR []float64
	// RoomIR, when set, is convolved with ChannelIR (memoized across
	// sessions) to form the effective acoustic channel.
	RoomIR []float64
	// EstimateSecondary calibrates ĥ_se by probing SecondaryIR through
	// anc.EstimateSecondaryPath (memoized across sessions) instead of
	// assuming the true chain is known.
	EstimateSecondary bool
	// EstimateNoiseRMS is the error-mic self-noise during calibration.
	EstimateNoiseRMS float64
	// EstimateSeed seeds the calibration probe (default 1).
	EstimateSeed uint64
	// LossBlind disables the sample-domain canceller's loss-aware mode,
	// which gates adaptation on the concealment mask (on by default). FDAF
	// sessions (FDAFBlock > 0) are always loss-blind: the block canceller
	// has no concealment gate, so LossBlind has no effect on them.
	LossBlind bool
	// FDAFBlock, when non-zero, runs the session on the partitioned
	// frequency-domain canceller with this block size (power of two):
	// per-sample MACs collapse into batched FFT work, the fleet's
	// high-density mode. Must divide FrameSamples.
	FDAFBlock int
	// FDAFMu is the per-bin normalized step (default core.DefaultBlockMu).
	FDAFMu float64
}

// DefaultProfile returns the serving defaults.
func DefaultProfile() Profile {
	return Profile{
		SampleRate:       8000,
		FrameSamples:     80,
		Lookahead:        64,
		JitterDepth:      32,
		CausalTaps:       core.EarCausalTaps,
		MaxNonCausalTaps: 16,
		Mu:               0.1,
		SecondaryIR:      core.EarSecondaryPath(),
		ChannelIR:        core.EarChannel(),
		EstimateSeed:     1,
		FDAFMu:           core.DefaultBlockMu,
	}
}

// withDefaults fills zero fields from DefaultProfile and validates.
func (p Profile) withDefaults() (Profile, error) {
	d := DefaultProfile()
	if p.SampleRate == 0 {
		p.SampleRate = d.SampleRate
	}
	if p.FrameSamples == 0 {
		p.FrameSamples = d.FrameSamples
	}
	if p.Lookahead == 0 {
		p.Lookahead = d.Lookahead
	}
	if p.JitterDepth == 0 {
		p.JitterDepth = d.JitterDepth
	}
	if p.CausalTaps == 0 {
		p.CausalTaps = d.CausalTaps
	}
	if p.MaxNonCausalTaps == 0 {
		p.MaxNonCausalTaps = d.MaxNonCausalTaps
	}
	if p.Mu == 0 {
		p.Mu = d.Mu
	}
	if p.SecondaryIR == nil {
		p.SecondaryIR = d.SecondaryIR
	}
	if p.ChannelIR == nil {
		p.ChannelIR = d.ChannelIR
	}
	if p.EstimateSeed == 0 {
		p.EstimateSeed = d.EstimateSeed
	}
	if p.FDAFMu == 0 {
		p.FDAFMu = d.FDAFMu
	}
	if p.FrameSamples <= 0 || p.FrameSamples > stream.MaxFrameSamples {
		return p, fmt.Errorf("fleet: frame size %d outside (0, %d]", p.FrameSamples, stream.MaxFrameSamples)
	}
	if p.FDAFBlock != 0 && p.FrameSamples%p.FDAFBlock != 0 {
		return p, fmt.Errorf("fleet: FDAF block %d must divide frame size %d", p.FDAFBlock, p.FrameSamples)
	}
	return p, nil
}

// Session is one relay→ear pipeline under the server. All mutable state
// is private to the session; the server drives it from exactly one
// goroutine per tick.
type Session struct {
	// ID is the envelope session id.
	ID uint32

	profile Profile
	buf     *sessionBuffer
	pl      *graph.Pipeline
	reg     *telemetry.Registry

	ctrBlocks *telemetry.Counter
	residual  []float64

	// Lifecycle state (see lifecycle.go). quarantined/panicMsg are
	// atomics because Ingest and tickSession both observe them under the
	// server's read lock; the probes are touched only on the session's
	// own tick/ingest path.
	quarantined atomic.Bool
	panicMsg    atomic.Pointer[string]
	lastFrame   atomic.Int64 // server tick count when a frame last landed
	tickProbe   func(block int64)
	ingestProbe func(payload []byte)
}

// Stats returns the session's transport counters (jitter buffer plus the
// demux's per-session corrupt count).
func (s *Session) Stats() stream.JitterStats { return s.buf.Stats() }

// Meters returns the session's accumulated ambient and residual powers.
func (s *Session) Meters() (noisePow, resPow float64) { return s.pl.Meters() }

// SessionOption customizes Open.
type SessionOption func(*Session)

// WithResidual captures the session's residual samples into dst, indexed
// by the session sample clock — the isolation suite's bit-exactness
// probe. dst must cover every sample the session will process.
func WithResidual(dst []float64) SessionOption {
	return func(s *Session) { s.residual = dst }
}

// sessionBuffer is the session's face of the shared frame pool: it
// decodes datagrams into pooled frames, feeds the jitter buffer, and
// implements graph.FrameBuffer for the session's ReceiverSource. The
// jitter buffer's release hook returns every retained frame to the pool;
// Close (reached via Pipeline.Close → ReceiverSource.Close) drains the
// rest.
type sessionBuffer struct {
	jb   *stream.JitterBuffer
	pool *framePool

	ctrFrames   *telemetry.Counter
	ctrCorrupt  *telemetry.Counter
	corruptHere uint64
}

func newSessionBuffer(depth int, pool *framePool, reg *telemetry.Registry) (*sessionBuffer, error) {
	jb, err := stream.NewJitterBuffer(depth)
	if err != nil {
		return nil, err
	}
	b := &sessionBuffer{
		jb:         jb,
		pool:       pool,
		ctrFrames:  reg.Counter("fleet.session.frames_in"),
		ctrCorrupt: reg.Counter("fleet.session.corrupt"),
	}
	jb.SetRelease(pool.put)
	return b, nil
}

// ingest decodes one inner-frame payload into a pooled frame and pushes
// it. Rejected frames (corrupt, late, duplicate) go straight back to the
// pool — the jitter buffer never saw or already refused them.
func (b *sessionBuffer) ingest(payload []byte) error {
	f := b.pool.get()
	if err := f.UnmarshalInto(payload); err != nil {
		b.corruptHere++
		b.ctrCorrupt.Inc()
		b.pool.put(f)
		return err
	}
	b.ctrFrames.Inc()
	if !b.jb.Push(f) {
		b.pool.put(f)
	}
	return nil
}

// PopMask implements graph.FrameBuffer.
func (b *sessionBuffer) PopMask(dst []float64, mask []bool) int { return b.jb.PopMask(dst, mask) }

// Stats implements graph.FrameBuffer, folding in the demux-level corrupt
// count the jitter buffer never sees.
func (b *sessionBuffer) Stats() stream.JitterStats {
	st := b.jb.Stats()
	st.FramesCorrupt = b.corruptHere
	return st
}

// Buffered implements graph.FrameBuffer.
func (b *sessionBuffer) Buffered() int { return b.jb.Buffered() }

// PlayoutClock implements graph.FrameBuffer.
func (b *sessionBuffer) PlayoutClock() uint64 { return b.jb.PlayoutClock() }

// Recovered implements graph.FrameBuffer (the fleet envelope carries no
// FEC today).
func (b *sessionBuffer) Recovered() uint64 { return 0 }

// Close hands every buffered frame back to the pool.
func (b *sessionBuffer) Close() error {
	b.jb.Reset()
	return nil
}

// Config tunes a Server.
type Config struct {
	// Shards is the ProcessTick fan-out: sessions are partitioned into
	// this many contiguous id-ordered chunks, each driven by its own
	// goroutine. 0 or 1 means sequential — the zero-allocation mode, since
	// the shard fan-out itself costs a few allocations per tick.
	Shards int
	// Lifecycle tunes the overload watchdog and pressure ladder
	// (lifecycle.go). The zero value arms the watchdog with defaults.
	Lifecycle LifecycleConfig
}

// Server multiplexes cancellation sessions.
type Server struct {
	mu       sync.RWMutex
	sessions map[uint32]*Session
	order    []uint32 // ascending ids: the deterministic iteration order
	shards   []shard  // the tick fan-out's per-goroutine state
	shardWG  sync.WaitGroup

	pool  *framePool
	cache memo

	// Lifecycle state (lifecycle.go): the ladder itself lives in lc; the
	// current rung is mirrored into an atomic so the per-session tick path
	// reads it lock-free, and draining gates admissions once Drain has
	// begun.
	lc       lifecycle
	pressure atomic.Int32
	draining atomic.Bool
	ticks    atomic.Int64

	reg         *telemetry.Registry
	retired     *telemetry.Registry // closed sessions' registries, pre-merged
	gSessions   *telemetry.Gauge
	gPressure   *telemetry.Gauge
	gLateEWMA   *telemetry.Gauge
	ctrBlocks   *telemetry.Counter
	ctrMiss     *telemetry.Counter
	ctrFrames   *telemetry.Counter
	ctrBadEnv   *telemetry.Counter
	ctrUnknown  *telemetry.Counter
	ctrQuar     *telemetry.Counter
	ctrQuarDrop *telemetry.Counter
	ctrShed     *telemetry.Counter
	ctrRefused  *telemetry.Counter
	ctrDrained  *telemetry.Counter
	latenessNS  *telemetry.Histogram
}

// NewServer creates an empty session server.
func NewServer(cfg Config) *Server {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		sessions:    make(map[uint32]*Session),
		shards:      make([]shard, shards),
		pool:        newFramePool(),
		cache:       sharedSetup,
		lc:          lifecycle{cfg: cfg.Lifecycle.withDefaults()},
		reg:         reg,
		retired:     telemetry.NewRegistry(),
		gSessions:   reg.Gauge("fleet.sessions"),
		gPressure:   reg.Gauge("fleet.pressure_state"),
		gLateEWMA:   reg.Gauge("fleet.tick_lateness_ewma_ns"),
		ctrBlocks:   reg.Counter("fleet.blocks"),
		ctrMiss:     reg.Counter("fleet.deadline_miss"),
		ctrFrames:   reg.Counter("fleet.frames_in"),
		ctrBadEnv:   reg.Counter("fleet.bad_envelope"),
		ctrUnknown:  reg.Counter("fleet.unknown_session"),
		ctrQuar:     reg.Counter("fleet.quarantined"),
		ctrQuarDrop: reg.Counter("fleet.quarantined_frames"),
		ctrShed:     reg.Counter("fleet.shed"),
		ctrRefused:  reg.Counter("fleet.refused"),
		ctrDrained:  reg.Counter("fleet.drained"),
		latenessNS:  reg.Histogram("fleet.tick_lateness_ns", telemetry.HistogramOpts{Lo: 1e3, Ratio: 2, Buckets: 26}),
	}
	// Publish the starting rung: merges skip never-set gauges, and the
	// pressure state should be visible even for a fleet that never leaves
	// NORMAL.
	s.gPressure.Set(float64(PressureNormal))
	for w := range s.shards {
		sh := &s.shards[w]
		sh.srv = s
		sh.run = sh.tick // built once: starting the goroutine allocates nothing
	}
	return s
}

// admit checks the lifecycle admission gates: a draining server is
// handing off, a shedding one is overloaded; neither accepts sessions.
func (s *Server) admit() error {
	if s.draining.Load() {
		return ErrDraining
	}
	if PressureState(s.pressure.Load()) == PressureShedding {
		s.ctrRefused.Inc()
		return ErrOverloaded
	}
	return nil
}

// Open builds a session for id from profile and registers it. The heavy
// setup — secondary-path calibration, room pre-renders — is served from
// the cross-session memo cache when any session has computed it before.
// While the server is draining or shedding, Open refuses with ErrDraining
// or ErrOverloaded (match with errors.Is).
func (s *Server) Open(id uint32, profile Profile, opts ...SessionOption) (*Session, error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	p, err := profile.withDefaults()
	if err != nil {
		return nil, err
	}

	// Effective acoustic channel: room ⊛ multipath when a room is set.
	chanIR := p.ChannelIR
	if len(p.RoomIR) > 0 {
		chanIR, err = s.cache.roomRender(p.RoomIR, p.ChannelIR)
		if err != nil {
			return nil, err
		}
	}
	// ĥ_se: the true chain, or a memoized calibration probe of it.
	secEst := p.SecondaryIR
	if p.EstimateSecondary {
		secEst, err = s.cache.secondaryEstimate(p.SecondaryIR, p.EstimateNoiseRMS, p.EstimateSeed)
		if err != nil {
			return nil, err
		}
	}

	reg := telemetry.NewRegistry()
	buf, err := newSessionBuffer(p.JitterDepth, s.pool, reg)
	if err != nil {
		return nil, err
	}
	delay, err := dsp.NewDelayLine(p.Lookahead)
	if err != nil {
		return nil, err
	}

	sess := &Session{
		ID:        id,
		profile:   p,
		buf:       buf,
		reg:       reg,
		ctrBlocks: reg.Counter("fleet.session.blocks"),
	}
	for _, opt := range opts {
		opt(sess)
	}

	// The session's SecondaryIR is the whole speaker→error-mic chain and
	// carries no device latency, so the budget debits no pipeline: a
	// debit the chain does not have would leave its samples in the taps
	// as pure delay instead of in the reference alignment.
	gcfg := graph.Config{
		SampleRate: p.SampleRate,
		Lookahead:  p.Lookahead,
		Canceller: graph.CancellerParams{
			CausalTaps:    p.CausalTaps,
			Mu:            p.Mu,
			SecondaryPath: secEst,
			LossAware:     !p.LossBlind && p.FDAFBlock == 0,
		},
		MaxNonCausalTaps: p.MaxNonCausalTaps,
		TraceBlock:       p.FrameSamples, // the tick's block: Build sizes the pull scratch for it
		Reference:        &graph.ReceiverSource{Buf: buf},
		Ambient:          &graph.DerivedAmbient{Delay: delay, Channel: dsp.NewStreamConvolver(chanIR)},
		SecondaryIR:      p.SecondaryIR,
		Residual:         sess.residual,
	}
	if p.FDAFBlock > 0 {
		gcfg.FDAF = &graph.FDAFParams{BlockSize: p.FDAFBlock, Mu: p.FDAFMu}
	}
	pl, err := graph.Build(gcfg)
	if err != nil {
		return nil, err
	}
	sess.pl = pl

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: the ladder may have shed or a drain begun
	// while the session was being built.
	if err := s.admit(); err != nil {
		pl.Close()
		return nil, err
	}
	if _, dup := s.sessions[id]; dup {
		pl.Close()
		return nil, fmt.Errorf("fleet: session %d already open", id)
	}
	// A session opened under DEGRADED starts with the shrunken window.
	sess.applyPressure(s)
	sess.lastFrame.Store(s.ticks.Load())
	s.sessions[id] = sess
	i := sort.Search(len(s.order), func(k int) bool { return s.order[k] > id })
	s.order = append(s.order, 0)
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = id
	s.gSessions.Set(float64(len(s.sessions)))
	return sess, nil
}

// CloseSession tears a session down: the pipeline closes (draining the
// session's buffered frames back to the pool) and the session's registry
// is folded into the server's retired aggregate so its counters survive.
func (s *Server) CloseSession(id uint32) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("fleet: session %d not open", id)
	}
	delete(s.sessions, id)
	i := sort.Search(len(s.order), func(k int) bool { return s.order[k] >= id })
	s.order = append(s.order[:i], s.order[i+1:]...)
	s.gSessions.Set(float64(len(s.sessions)))
	s.mu.Unlock()

	err := sess.pl.Close()
	s.mu.Lock()
	s.retired.Merge(sess.reg)
	s.mu.Unlock()
	return err
}

// Close tears down every open session; the first error wins.
func (s *Server) Close() error {
	s.mu.RLock()
	ids := append([]uint32(nil), s.order...)
	s.mu.RUnlock()
	var first error
	for _, id := range ids {
		if err := s.CloseSession(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Lookup returns the open session with the given id, or nil.
func (s *Server) Lookup(id uint32) *Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

// Ingest demultiplexes one fleet datagram — one enveloped record or a
// coalesced batch of them — into the addressed sessions' jitter buffers.
// Malformed envelopes are counted (fleet.bad_envelope) and reported; a
// corrupt inner frame is charged to the addressed session. Records for
// unknown session ids are counted (fleet.unknown_session) but are NOT an
// error: under churn a frame racing its session's close is expected
// traffic, and treating it as fatal would abort load generators and
// relays mid-storm. Frames addressed to a quarantined session are dropped
// and counted (fleet.quarantined_frames). A panic while decoding into a
// session quarantines that session and the walk continues. An unknown id
// or corrupt frame does not stop the walk — later records in the batch
// still land — but a malformed envelope does (boundaries past it cannot
// be trusted). The first error is reported. The happy path is
// allocation-free: each payload is decoded into a pooled frame in place.
func (s *Server) Ingest(datagram []byte) error {
	if len(datagram) == 0 {
		s.ctrBadEnv.Inc()
		return fmt.Errorf("fleet: empty datagram")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var first error
	for len(datagram) > 0 {
		id, payload, rest, err := NextEnvelope(datagram)
		if err != nil {
			s.ctrBadEnv.Inc()
			if first == nil {
				first = err
			}
			break
		}
		datagram = rest
		sess := s.sessions[id]
		if sess == nil {
			s.ctrUnknown.Inc()
			continue
		}
		if sess.quarantined.Load() {
			s.ctrQuarDrop.Inc()
			continue
		}
		s.ctrFrames.Inc()
		if err := s.ingestSession(sess, payload); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ingestSession decodes one payload into a session with panic quarantine:
// a panic inside the decode or jitter-buffer path poisons only the
// addressed session, never the shared ingest loop.
func (s *Server) ingestSession(sess *Session, payload []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			sess.quarantine(fmt.Sprintf("ingest: %v", r))
			s.ctrQuar.Inc()
			err = nil
		}
	}()
	if sess.ingestProbe != nil {
		sess.ingestProbe(payload)
	}
	if err := sess.buf.ingest(payload); err != nil {
		return err
	}
	sess.lastFrame.Store(s.ticks.Load())
	return nil
}

// ProcessTick advances every session by one frame-sized block, in
// ascending session-id order. With Shards <= 1 the walk is sequential
// and allocation-free; otherwise the id-ordered slice is partitioned
// into contiguous chunks driven by shard goroutines. Sessions are
// shared-nothing, so both schedules produce identical output bits.
// Quarantined sessions are skipped; a session that panics mid-tick is
// quarantined and its shard keeps ticking its neighbors. Under
// PressureShedding, sessions starved past the idle horizon are reaped
// after the tick (counted fleet.shed).
func (s *Server) ProcessTick() error {
	s.mu.RLock()
	err := s.tickAllLocked()
	var reap []uint32
	if PressureState(s.pressure.Load()) == PressureShedding && s.lc.cfg.IdleReapTicks > 0 {
		horizon := s.ticks.Load() - int64(s.lc.cfg.IdleReapTicks)
		for _, id := range s.order {
			if s.sessions[id].lastFrame.Load() < horizon {
				reap = append(reap, id)
			}
		}
	}
	s.ticks.Add(1)
	s.mu.RUnlock()
	for _, id := range reap {
		if s.CloseSession(id) == nil {
			s.ctrShed.Inc()
		}
	}
	return err
}

// tickAllLocked runs the tick schedule under the already-held read lock.
func (s *Server) tickAllLocked() error {
	if len(s.shards) <= 1 || len(s.order) < 2 {
		for _, id := range s.order {
			if err := s.tickSession(s.sessions[id]); err != nil {
				return err
			}
		}
		return nil
	}
	n := min(len(s.shards), len(s.order))
	per := (len(s.order) + n - 1) / n
	started := 0
	for ; started < n; started++ {
		lo := started * per
		if lo >= len(s.order) {
			break
		}
		sh := &s.shards[started]
		sh.ids, sh.err = s.order[lo:min(lo+per, len(s.order))], nil
		s.shardWG.Add(1)
		go sh.run()
	}
	s.shardWG.Wait()
	for _, sh := range s.shards[:started] {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// shard is one tick fan-out goroutine's slice of the id order and its
// result. The Server keeps one per shard, with its entry function, so a
// sharded tick allocates nothing.
type shard struct {
	srv *Server
	ids []uint32
	err error
	run func()
}

// tick serves the shard's sessions in id order, stopping at the first
// error.
func (sh *shard) tick() {
	defer sh.srv.shardWG.Done()
	for _, id := range sh.ids {
		if err := sh.srv.tickSession(sh.srv.sessions[id]); err != nil {
			sh.err = err
			return
		}
	}
}

// tickSession runs one session block. The jitter buffer fills any gap
// with concealed zeros, so a block is always full-length — a session
// never stalls the tick. A panic anywhere inside the session's pipeline
// quarantines that one session — the counter fleet.quarantined ticks, the
// panic value is retained on the session, and the caller's walk continues
// with the next session — so a poisoned session costs the fleet one ear,
// not the process.
func (s *Server) tickSession(sess *Session) (err error) {
	if sess.quarantined.Load() {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			sess.quarantine(fmt.Sprintf("tick: %v", r))
			s.ctrQuar.Inc()
			err = nil
		}
	}()
	sess.applyPressure(s)
	if sess.tickProbe != nil {
		sess.tickProbe(sess.ctrBlocks.Value())
	}
	if _, err := sess.pl.ProcessBlock(sess.profile.FrameSamples); err != nil {
		return err
	}
	sess.ctrBlocks.Inc()
	s.ctrBlocks.Inc()
	return nil
}

// ObserveTick records one paced tick's completion lateness relative to
// the *next* block deadline: lateness <= 0 means the tick beat the frame
// period (no miss); lateness > 0 means every session in the tick missed
// its block deadline. The pacer (cmd/mutefleet's paced loop) calls this
// once per tick. It also feeds the overload watchdog: the smoothed
// lateness drives the fleet-wide pressure ladder (lifecycle.go), whose
// rung sessions read on their next tick.
func (s *Server) ObserveTick(latenessNS int64) {
	if latenessNS > 0 {
		s.mu.RLock()
		s.ctrMiss.Add(int64(len(s.sessions)))
		s.mu.RUnlock()
		s.latenessNS.Observe(float64(latenessNS))
	} else {
		s.latenessNS.Observe(0)
	}
	state, changed, ewma := s.lc.observe(latenessNS)
	s.gLateEWMA.Set(ewma)
	if changed {
		s.pressure.Store(int32(state))
		s.gPressure.Set(float64(state))
	}
}

// PoolStats returns the frame pool's lifetime traffic.
func (s *Server) PoolStats() (news, gets, puts int64) { return s.pool.counters() }

// CacheStats returns the cross-session setup cache's hit/miss counters.
func (s *Server) CacheStats() (hits, misses uint64) { return s.cache.Stats() }

// Registry returns the server-level registry (fleet.* metrics).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// MergeTelemetry folds the fleet's full metric fan-in into dst: the
// server registry, the retired-session aggregate, then every open
// session's registry in ascending session-id order. The order is fixed,
// so the merged snapshot is deterministic for any shard count — the same
// contract the experiment runner's worker pool keeps.
func (s *Server) MergeTelemetry(dst *telemetry.Registry) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	news, gets, puts := s.pool.counters()
	s.reg.Gauge("fleet.pool.news").Set(float64(news))
	s.reg.Gauge("fleet.pool.gets").Set(float64(gets))
	s.reg.Gauge("fleet.pool.puts").Set(float64(puts))
	dst.Merge(s.reg)
	dst.Merge(s.retired)
	for _, id := range s.order {
		dst.Merge(s.sessions[id].reg)
	}
}
