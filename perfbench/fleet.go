package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"mute/internal/audio"
	"mute/internal/fleet"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// fleetSpec is one session-server workload. Both fleet workloads are
// closed loops: one generator in this process builds each tick's
// coalesced, enveloped datagrams, hands them to Server.Ingest, calls
// ProcessTick and only then starts the next tick. Nothing sleeps and no
// socket is used, so for a fixed seed every count and every meter repeats
// bit for bit.
type fleetSpec struct {
	sessions int
	shards   int
	// churnEvery closes one session (meters read first) and reopens it
	// every churnEvery ticks; 0 disables churn.
	churnEvery int
	// mustCancel asserts the fleet actually cancels (cancel_db < -10).
	mustCancel bool
	profile    func(seed uint64) fleet.Profile
}

// linkFaults is every user's impairment template: 2% Gilbert–Elliott loss
// with mean burst 2, 2% reordering, 1% duplication.
var linkFaults = stream.LossParams{Loss: 0.02, MeanBurst: 2, Reorder: 0.02, Duplicate: 0.01}

// skewPPM re-stamps every third user's capture clock.
const skewPPM = 80

// serveTD is steady-state serving on the default time-domain profile.
var serveTD = fleetSpec{
	sessions:   200,
	shards:     1,
	mustCancel: true,
	profile:    func(uint64) fleet.Profile { return fleet.DefaultProfile() },
}

// churnFDAF runs the FDAF path under session churn, with the per-profile
// setup (room render, secondary-path calibration) served by the memo.
var churnFDAF = fleetSpec{
	sessions:   100,
	shards:     2,
	churnEvery: 4,
	profile: func(seed uint64) fleet.Profile {
		p := fleet.DefaultProfile()
		p.FDAFBlock = 16
		p.RoomIR = roomIR(seed)
		p.EstimateSecondary = true
		p.EstimateNoiseRMS = 0.01
		return p
	},
}

// roomIR is a seeded 64-tap decaying room response.
func roomIR(seed uint64) []float64 {
	rng := audio.NewRNG(seed*0x9e3779b97f4a7c15 + 5)
	ir := make([]float64, 64)
	ir[0] = 1
	for k := 1; k < len(ir); k++ {
		ir[k] = 0.3 * math.Exp(-float64(k)/12) * rng.Uniform()
	}
	return ir
}

// fleetSizes are the run's fixed amounts of work.
type fleetSizes struct {
	sessions int
	// warmup ticks run inside set-up, after two priming slots.
	warmup int
	// check is the fixed tick count behind cancel_db and the determinism
	// and conservation checks.
	check int
	// rounds is how many set-up rounds run before the window and again
	// after it; setup_s is their median.
	rounds int
	// mergeEvery is the operator scrape period: MergeTelemetry runs every
	// mergeEvery ticks.
	mergeEvery int
	// chunk is the trace-alternation granularity in ticks.
	chunk int
}

func sizesFor(spec fleetSpec, tiny bool) fleetSizes {
	if tiny {
		return fleetSizes{sessions: spec.sessions / 10, warmup: 5, check: 30, rounds: 1, mergeEvery: 10, chunk: 10}
	}
	return fleetSizes{sessions: spec.sessions, warmup: 50, check: 400, rounds: 5, mergeEvery: 100, chunk: 100}
}

// user is one simulated relay: seeded audio, a seeded impairment link,
// optional oscillator skew, enveloped records.
type user struct {
	id      uint32
	rng     *audio.RNG
	link    *stream.LossyLink
	seq     uint32
	clock   uint64
	skewPPM float64
	// ring holds the frames in flight through the link: a delayed frame
	// must survive until the link delivers it.
	ring []stream.Frame
	rec  []byte
}

func newUser(id uint32, frame int, seed uint64, skew float64) (*user, error) {
	lp := linkFaults
	lp.Seed = seed*1_000_003 + uint64(id)
	link, err := stream.NewLossyLink(lp)
	if err != nil {
		return nil, err
	}
	// Reorder (1) plus the duplicate tail (1) plus the current slot, and
	// one spare.
	ring := make([]stream.Frame, 4)
	for i := range ring {
		ring[i].Samples = make([]float64, frame)
	}
	return &user{
		id:      id,
		rng:     audio.NewRNG(seed*0x2545f4914f6cdd1d + uint64(id)*0x9e3779b9 + 11),
		link:    link,
		skewPPM: skew,
		ring:    ring,
		rec:     make([]byte, 0, fleet.MaxDatagram),
	}, nil
}

// tick offers the user's next frame to its link and adds every record the
// link delivers to the batch.
func (u *user) tick(b *batcher) error {
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
	u.clock += uint64(len(f.Samples))
	for _, g := range u.link.Transfer(f) {
		rec, err := g.AppendMarshal(fleet.AppendEnvelope(u.rec[:0], u.id, nil))
		if err != nil {
			return err
		}
		u.rec = rec
		b.add(rec)
	}
	return nil
}

// batcher coalesces records into datagrams of at most fleet.MaxDatagram
// bytes and ingests each full datagram.
type batcher struct {
	srv     *fleet.Server
	buf     []byte
	pending int
	records int64
	// ingests and failed count Server.Ingest calls and errors.
	ingests, failed int64
	// traced times every Ingest call into ingestNS.
	traced   bool
	ingestNS int64
}

func (b *batcher) add(rec []byte) {
	if len(b.buf) > 0 && len(b.buf)+len(rec) > fleet.MaxDatagram {
		b.flush()
	}
	b.buf = append(b.buf, rec...)
	b.pending++
}

func (b *batcher) flush() {
	if len(b.buf) == 0 {
		return
	}
	var t0 time.Time
	if b.traced {
		t0 = time.Now()
	}
	err := b.srv.Ingest(b.buf)
	if b.traced {
		b.ingestNS += time.Since(t0).Nanoseconds()
	}
	b.ingests++
	b.records += int64(b.pending)
	if err != nil {
		b.failed++
	}
	b.buf = b.buf[:0]
	b.pending = 0
}

// stageNS accumulates the traced ticks' stage times.
type stageNS struct {
	wall, genSelf, ingest, churn, tick, merge int64
	ticks, frames, records                    int64
	allocs                                    uint64
}

// replica is one server plus its generator, built from a seed.
type replica struct {
	spec  fleetSpec
	sz    fleetSizes
	prof  fleet.Profile
	srv   *fleet.Server
	users []*user
	ids   []uint32
	churn *audio.RNG
	batch batcher
	ticks int
	// tickErrs are the ProcessTick errors; an Open or Close error aborts
	// the run instead.
	tickErrs []error

	opens, closes []float64 // per-call wall time, ns
	merges        []float64 // ms
	closedNoise   float64
	closedRes     float64
	closedJitter  stream.JitterStats
	lookups0      uint64
	traced        stageNS
	allocSample   []metrics.Sample
}

// newReplica opens every session (timing each Open), builds the
// generator, primes two slots of transport lead and runs the warm-up
// ticks: everything before a timed window. clock laps after the Opens,
// after the priming and after every warm-up tick.
func newReplica(spec fleetSpec, sz fleetSizes, seed uint64, clock *refClock) (*replica, error) {
	r := &replica{
		spec:        spec,
		sz:          sz,
		prof:        spec.profile(seed),
		srv:         fleet.NewServer(fleet.Config{Shards: spec.shards}),
		churn:       audio.NewRNG(seed*0x94d049bb133111eb + 3),
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
	r.batch.srv = r.srv
	h, m := r.srv.CacheStats()
	r.lookups0 = h + m
	for i := 0; i < sz.sessions; i++ {
		id := uint32(1 + i)
		if err := r.open(id); err != nil {
			return nil, err
		}
		skew := 0.0
		if i%3 == 0 {
			skew = skewPPM
		}
		u, err := newUser(id, r.prof.FrameSamples, seed, skew)
		if err != nil {
			return nil, err
		}
		r.users = append(r.users, u)
		r.ids = append(r.ids, id)
	}
	clock.lap()
	for lead := 0; lead < 2; lead++ {
		if err := r.generate(); err != nil {
			return nil, err
		}
	}
	clock.lap()
	for w := 0; w < sz.warmup; w++ {
		if _, _, err := r.step(false); err != nil {
			return nil, err
		}
		clock.lap()
	}
	return r, nil
}

func (r *replica) open(id uint32) error {
	t0 := time.Now()
	if _, err := r.srv.Open(id, r.prof); err != nil {
		return fmt.Errorf("open %d: %w", id, err)
	}
	r.opens = append(r.opens, float64(time.Since(t0).Nanoseconds()))
	return nil
}

// generate runs one slot of every user and ingests the coalesced batch.
func (r *replica) generate() error {
	for _, u := range r.users {
		if err := u.tick(&r.batch); err != nil {
			return err
		}
	}
	r.batch.flush()
	return nil
}

// churnOne closes one seeded-random session, after folding its meters and
// transport counters into the closed totals, and reopens it.
func (r *replica) churnOne() error {
	id := r.ids[r.churn.Intn(len(r.ids))]
	if s := r.srv.Lookup(id); s != nil {
		n, res := s.Meters()
		r.closedNoise += n
		r.closedRes += res
		addJitter(&r.closedJitter, s.Stats())
	}
	t0 := time.Now()
	if err := r.srv.CloseSession(id); err != nil {
		return fmt.Errorf("close %d: %w", id, err)
	}
	r.closes = append(r.closes, float64(time.Since(t0).Nanoseconds()))
	return r.open(id)
}

// step runs one closed-loop tick — churn when due, generation and ingest,
// ProcessTick, the periodic telemetry merge — and returns the tick's
// ProcessTick wall time and the whole step's wall time. With traced set
// it also times every stage into r.traced.
func (r *replica) step(traced bool) (tick, loop time.Duration, err error) {
	start := time.Now()
	st := &r.traced
	if traced {
		st.ticks++
		st.frames += int64(len(r.users))
	}
	if r.spec.churnEvery > 0 && r.ticks%r.spec.churnEvery == r.spec.churnEvery-1 {
		t0 := time.Now()
		if err := r.churnOne(); err != nil {
			return 0, 0, err
		}
		if traced {
			st.churn += time.Since(t0).Nanoseconds()
		}
	}

	r.batch.traced = traced
	ingest0, records0 := r.batch.ingestNS, r.batch.records
	t0 := time.Now()
	if err := r.generate(); err != nil {
		return 0, 0, err
	}
	if traced {
		ingest := r.batch.ingestNS - ingest0
		st.ingest += ingest
		st.genSelf += time.Since(t0).Nanoseconds() - ingest
		st.records += r.batch.records - records0
	}
	var allocs0 uint64
	if traced {
		metrics.Read(r.allocSample)
		allocs0 = r.allocSample[0].Value.Uint64()
	}

	t1 := time.Now()
	terr := r.srv.ProcessTick()
	tick = time.Since(t1)
	if terr != nil {
		r.tickErrs = append(r.tickErrs, fmt.Errorf("tick %d: %w", r.ticks, terr))
	}
	if traced {
		st.tick += tick.Nanoseconds()
		metrics.Read(r.allocSample)
		st.allocs += r.allocSample[0].Value.Uint64() - allocs0
	}

	r.ticks++
	if r.ticks%r.sz.mergeEvery == 0 {
		t2 := time.Now()
		r.srv.MergeTelemetry(telemetry.NewRegistry())
		d := time.Since(t2)
		r.merges = append(r.merges, ms(d))
		if traced {
			st.merge += d.Nanoseconds()
		}
	}
	loop = time.Since(start)
	if traced {
		st.wall += loop.Nanoseconds()
	}
	return tick, loop, nil
}

func addJitter(dst *stream.JitterStats, s stream.JitterStats) {
	dst.FramesReceived += s.FramesReceived
	dst.FramesDuplicate += s.FramesDuplicate
	dst.FramesLate += s.FramesLate
	dst.FramesDropped += s.FramesDropped
	dst.FramesCorrupt += s.FramesCorrupt
	dst.SamplesConcealed += s.SamplesConcealed
	dst.SamplesDelivered += s.SamplesDelivered
}

// fleetSnap is every count and meter the determinism check compares.
// Two replicas built from the same seed must produce equal snapshots
// after the same number of ticks, bit for bit.
type fleetSnap struct {
	ticks                                           int
	noise, res                                      float64
	framesIn, unknown, badEnv, quarFrames, quarSess int64
	offered, delivered                              uint64
	jitter                                          stream.JitterStats
	lookups                                         uint64
	opens, closes                                   int
}

func (r *replica) snapshot() fleetSnap {
	s := fleetSnap{
		ticks:  r.ticks,
		noise:  r.closedNoise,
		res:    r.closedRes,
		jitter: r.closedJitter,
		opens:  len(r.opens),
		closes: len(r.closes),
	}
	for _, id := range r.ids {
		if sess := r.srv.Lookup(id); sess != nil {
			n, res := sess.Meters()
			s.noise += n
			s.res += res
			addJitter(&s.jitter, sess.Stats())
		}
	}
	c := r.srv.Registry().Snapshot().Counters
	s.framesIn = c["fleet.frames_in"]
	s.unknown = c["fleet.unknown_session"]
	s.badEnv = c["fleet.bad_envelope"]
	s.quarFrames = c["fleet.quarantined_frames"]
	s.quarSess = c["fleet.quarantined"]
	for _, u := range r.users {
		ls := u.link.Stats()
		s.offered += ls.Offered
		s.delivered += ls.Delivered
	}
	h, m := r.srv.CacheStats()
	s.lookups = h + m - r.lookups0
	return s
}

// cancelDB is 10·log10 of the residual over the ambient power accumulated
// between two snapshots, over every session, closed ones included.
func cancelDB(a, b fleetSnap) float64 {
	return 10 * math.Log10((b.res-a.res)/(b.noise-a.noise))
}

// checkSnap verifies frame conservation and finiteness for one snapshot.
func checkSnap(rep *report, label string, s fleetSnap) {
	rep.check(s.delivered == uint64(s.framesIn+s.unknown+s.quarFrames),
		"%s: frames not conserved: generator delivered %d, server frames_in %d + unknown %d + quarantined %d",
		label, s.delivered, s.framesIn, s.unknown, s.quarFrames)
	rep.check(!math.IsNaN(s.noise) && !math.IsInf(s.noise, 0) && s.noise > 0,
		"%s: ambient meter not finite and positive (%v)", label, s.noise)
	rep.check(!math.IsNaN(s.res) && !math.IsInf(s.res, 0), "%s: residual meter not finite (%v)", label, s.res)
	rep.check(s.badEnv == 0 && s.quarSess == 0, "%s: %d bad envelopes, %d quarantined sessions", label, s.badEnv, s.quarSess)
}

// runFleet runs one fleet workload: set-up rounds, the timed closed-loop
// window, then a second replica from the same seed for the determinism
// check.
func runFleet(spec fleetSpec, o runOpts) (*report, error) {
	// The loop runs on one P. The shard fan-out's code path still runs,
	// but no tick waits for the second vCPU to wake up: on a shared host
	// that wake-up took milliseconds in some runs and not in others, which
	// made every tick metric of churn-fdaf unsteady (see README.md).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := newReport()
	sz := sizesFor(spec, o.tiny)
	// Set-up rounds: sz.rounds before the window (the first timed from
	// process start, the last kept for the window) and sz.rounds after it
	// (the first being the determinism replica), so setup_s samples the
	// host across the whole run.
	// Each round is timed in laps normalized to reference passes, like
	// the window's steps; setupWall keeps the wall times for the detail
	// lines.
	var setups, setupWall []float64
	setupRound := func(start time.Time) (*replica, error) {
		clock := newRefClock(start)
		nr, err := newReplica(spec, sz, o.seed, clock)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		clock.lap()
		setups = append(setups, clock.norm.Seconds())
		setupWall = append(setupWall, clock.wall.Seconds())
		return nr, nil
	}
	var r *replica
	for round := 0; round < sz.rounds; round++ {
		start := processStart
		if r != nil {
			// Only one replica is alive while the next is built.
			if err := r.srv.Close(); err != nil {
				return nil, err
			}
			r = nil
			runtime.GC()
			start = time.Time{}
		}
		nr, err := setupRound(start)
		if err != nil {
			return nil, err
		}
		r = nr
	}

	snapA := r.snapshot()
	var snapB fleetSnap
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Every step is bracketed by reference passes, and the timings are
	// reported normalized to them (see README.md, "Noise"): the host's
	// neighbours change how fast this process runs, by up to a factor of
	// two, from one tick to the next and from one run to the next.
	var tickMS []float64
	var untracedLoop, tracedLoop, ticks normalized
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	n := 0
	refBefore := referencePass()
	for ; n < sz.check || time.Since(start) < window; n++ {
		// Tracing alternates by chunk so traced and untraced ticks see the
		// same host phases; the overhead is their difference.
		traced := o.trace && (n/sz.chunk)%2 == 1
		tick, loop, err := r.step(traced)
		if err != nil {
			return nil, err
		}
		refAfter := referencePass()
		if traced {
			tracedLoop.add(float64(loop.Nanoseconds()), refBefore, refAfter)
		} else {
			untracedLoop.add(float64(loop.Nanoseconds()), refBefore, refAfter)
			ticks.add(ms(tick), refBefore, refAfter)
			tickMS = append(tickMS, ms(tick))
		}
		refBefore = refAfter
		if n+1 == sz.check {
			snapB = r.snapshot()
		}
	}
	windowWall := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	final := r.snapshot()

	// The determinism replica: same seed, same tick count, untimed.
	chk, err := setupRound(time.Time{})
	if err != nil {
		return nil, err
	}
	chkA := chk.snapshot()
	for i := 0; i < sz.check; i++ {
		if _, _, err := chk.step(false); err != nil {
			return nil, err
		}
	}
	chkB := chk.snapshot()
	for round := 1; round < sz.rounds; round++ {
		extra, err := setupRound(time.Time{})
		if err != nil {
			return nil, err
		}
		if err := extra.srv.Close(); err != nil {
			return nil, err
		}
	}

	// Correctness.
	for _, s := range []struct {
		label string
		snap  fleetSnap
	}{{"window start", snapA}, {"check point", snapB}, {"window end", final}, {"replica", chkB}} {
		checkSnap(rep, s.label, s.snap)
	}
	rep.check(snapA == chkA && snapB == chkB,
		"not deterministic: two replicas from seed %d differ after %d ticks:\n    %+v\n    %+v", o.seed, sz.check, snapB, chkB)
	db := cancelDB(snapA, snapB)
	rep.check(!math.IsNaN(db) && !math.IsInf(db, 0), "cancel_db not finite (%v)", db)
	if spec.mustCancel {
		rep.check(db < -10, "fleet does not cancel: cancel_db %.3f dB, want < -10", db)
	}
	for _, rr := range []struct {
		r    *replica
		last fleetSnap
	}{{r, final}, {chk, chkB}} {
		for _, e := range rr.r.tickErrs {
			rep.fail("%v", e)
		}
		rep.attempted += int64(len(rr.r.opens)+rr.r.ticks+len(rr.r.closes)) + rr.r.batch.ingests
		rep.failed += int64(len(rr.r.tickErrs)) + rr.r.batch.failed + rr.last.quarSess
	}
	for _, rr := range []*replica{r, chk} {
		if err := rr.srv.Close(); err != nil {
			return nil, err
		}
	}

	// Detail lines: the issue's full end-to-end set, with sample counts.
	// The rate leaves out the slowest and fastest 5% of steps, where a
	// reference pass or a step was interrupted.
	sbps := float64(sz.sessions) / (trimmedMean(untracedLoop.norm, 0.05) / 1e9)
	tickNorm := ticks.norm
	allOpens := r.opens
	rep.note("closed loop: %d sessions, %d shard(s), churn every %d ticks, %d ticks in %.3f s (%d untraced tick samples)",
		sz.sessions, spec.shards, spec.churnEvery, n, windowWall.Seconds(), len(tickMS))
	rep.note("normalized ProcessTick p50 %.4f ms p90 %.4f ms p99 %.4f ms",
		quantile(tickNorm, 0.5), quantile(tickNorm, 0.9), quantile(tickNorm, 0.99))
	rep.note("wall (not normalized): %.0f session-blocks/s; ProcessTick p50 %.4f ms p90 %.4f ms p99 %.4f ms",
		float64(sz.sessions*len(untracedLoop.wall))/(sum(untracedLoop.wall)/1e9),
		quantile(tickMS, 0.5), quantile(tickMS, 0.9), quantile(tickMS, 0.99))
	rep.note("reference pass p5 %.1f ns p50 %.1f ns p95 %.1f ns (nominal %.0f ns)",
		quantile(untracedLoop.ref, 0.05), quantile(untracedLoop.ref, 0.5), quantile(untracedLoop.ref, 0.95), refNominalNS)
	rep.note("setup_s rounds %v (wall %v)", setups, setupWall)
	rep.note("open_p50_ms %.4f open_p90_ms %.4f (n=%d, kept replica's set-up and churn Opens)",
		quantile(allOpens, 0.5)/1e6, quantile(allOpens, 0.9)/1e6, len(allOpens))
	rep.note("sim_rtf %.2f x (audio seconds served per wall second; realtime headroom %.2f)", sbps/100, sbps/float64(sz.sessions*100))
	rep.note("determinism: ticks %d frames_in %d concealed %d lookups %d opens %d cancel_db %.17g",
		snapB.ticks, snapB.framesIn, snapB.jitter.SamplesConcealed, snapB.lookups, snapB.opens, db)

	if !o.trace {
		rep.set("setup_s", median(setups))
		rep.set("session_blocks_per_s", sbps)
		rep.set("block_p50_ms", quantile(tickNorm, 0.5))
		rep.set("block_p90_ms", quantile(tickNorm, 0.9))
		rep.set("cancel_db", db)
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}

	// Per-layer metrics from the traced chunks and the program's own
	// counters.
	st := r.traced
	sessionBlocks := float64(st.ticks) * float64(sz.sessions)
	rep.set("fleet.ingest.ns_per_record", ratio(float64(st.ingest), float64(st.records)))
	rep.set("fleet.ingest.share", ratio(float64(st.ingest), float64(st.wall)))
	rep.set("fleet.tick.ns_per_session_block", ratio(float64(st.tick), sessionBlocks))
	rep.set("fleet.tick.share", ratio(float64(st.tick), float64(st.wall)))
	rep.set("fleet.tick.allocs_per_tick", ratio(float64(st.allocs), float64(st.ticks)))
	rep.set("fleet.open.ns_p50", quantile(allOpens, 0.5))
	rep.set("fleet.open.ns_p90", quantile(allOpens, 0.9))
	rep.set("fleet.open.count", float64(len(allOpens)))
	rep.set("fleet.close.count", float64(len(r.closes)))
	if len(r.closes) > 0 {
		rep.set("fleet.close.ns_p50", quantile(r.closes, 0.5))
	}
	hits, misses := r.srv.CacheStats()
	rep.set("fleet.cache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	news, gets, _ := r.srv.PoolStats()
	rep.set("fleet.pool.reuse_ratio", 1-ratio(float64(news), float64(gets)))
	rep.set("fleet.merge_ms", median(r.merges))
	rep.set("fleet.frames_in", float64(final.framesIn))
	rep.set("fleet.unknown_session", float64(final.unknown))
	rep.set("fleet.bad_envelope", float64(final.badEnv))
	rep.set("fleet.quarantined", float64(final.quarSess))
	j := final.jitter
	rep.set("stream.jitter.concealed_ratio", ratio(float64(j.SamplesConcealed), float64(j.SamplesConcealed+j.SamplesDelivered)))
	rep.set("stream.jitter.late_ratio", ratio(float64(j.FramesLate), float64(final.framesIn)))
	rep.set("stream.jitter.duplicate_ratio", ratio(float64(j.FramesDuplicate), float64(final.framesIn)))
	rep.set("gen.link.ns_per_frame", ratio(float64(st.genSelf), float64(st.frames)))
	rep.set("gen.share", ratio(float64(st.genSelf), float64(st.wall)))
	windowBlocks := float64(n) * float64(sz.sessions)
	rep.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.set("runtime.alloc_bytes_per_session_block", float64(ms1.TotalAlloc-ms0.TotalAlloc)/windowBlocks)
	rep.set("trace.overhead_pct", 100*(median(tracedLoop.norm)/median(untracedLoop.norm)-1))
	rep.set("host.reference_ns", median(untracedLoop.ref))
	rep.set("error_ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	checkLedger(rep, float64(st.wall)/1e6, map[string]float64{
		"ledger.gen_ms":    float64(st.genSelf) / 1e6,
		"ledger.ingest_ms": float64(st.ingest) / 1e6,
		"ledger.churn_ms":  float64(st.churn) / 1e6,
		"ledger.tick_ms":   float64(st.tick) / 1e6,
		"ledger.merge_ms":  float64(st.merge) / 1e6,
	})
	rep.note("traced: %d of %d ticks; overhead from median normalized step %.0f ns traced vs %.0f ns untraced",
		st.ticks, n, median(tracedLoop.norm), median(untracedLoop.norm))
	zeroIdle(rep)
	return rep, nil
}
