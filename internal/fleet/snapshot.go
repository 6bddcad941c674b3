package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the fleet lifecycle layer's handoff half: Drain snapshots
// every session's transferable state into a versioned wire format and
// Adopt warm-starts those sessions on another server, so a rolling
// restart moves the fleet between processes instead of killing every
// session cold.
//
// What transfers is exactly the state that takes time to re-learn or
// cannot be re-derived from traffic: the session id, the full acoustic
// profile (fingerprinted against the id so records cannot be grafted onto
// the wrong session), the jitter-buffer playout clock (so the adopted
// buffer re-anchors at the same capture index and the first post-handoff
// datagrams are neither "late" nor misaligned), and the canceller taps
// (so cancellation resumes from the converged filter instead of
// re-adapting from zero — the same warm-start trick the supervisor uses
// across its failover, lifted to process granularity). Everything else —
// pooled frames in flight, telemetry, the acoustic leg's convolver tail —
// is either re-derivable or deliberately process-local.
//
// Wire format (big-endian):
//
//	header: magic "MS" (2) | version (1) | session count (4)
//	record: record length (4) | record body
//	body:   session id (4) | fingerprint (8) | profile | playout clock (8)
//	        | drift ppm (8) | tap count (4) | taps (8 each)
//
// The fingerprint hashes (id || encoded profile), so a record pasted
// under another session's id — or a profile tampered in flight — fails
// validation instead of warm-starting the wrong filter shape.
const (
	snapshotMagic   = 0x4D53 // "MS"
	snapshotVersion = 1
	// snapshotHeader is the snapshot header size in bytes.
	snapshotHeader = 2 + 1 + 4
)

// SessionSnapshot is one session's transferable state.
type SessionSnapshot struct {
	// ID is the session id the state belongs to.
	ID uint32
	// Profile is the session's full (default-filled) acoustic profile.
	Profile Profile
	// PlayoutClock is the capture index of the next sample the jitter
	// buffer would have played; Adopt anchors the new buffer there.
	PlayoutClock uint64
	// DriftPPM is reserved for the relay-clock drift estimate once fleet
	// sessions grow a drift tracker (always 0 today); the wire format
	// carries it so version 1 snapshots stay readable when it lands.
	DriftPPM float64
	// Weights is the canceller's converged taps — LANC's time-domain
	// vector, or the FDAF path's reconstructed time-domain equivalent.
	Weights []float64
}

// FleetSnapshot is a drained server's full transferable state.
type FleetSnapshot struct {
	// Version is the wire-format version the snapshot was encoded with.
	Version int
	// Sessions holds one record per drained session, ascending by id.
	Sessions []SessionSnapshot
}

// appendProfile encodes p deterministically. Field order is part of the
// version-1 wire format; new fields bump snapshotVersion.
func appendProfile(dst []byte, p Profile) []byte {
	dst = appendF64(dst, p.SampleRate)
	dst = appendU32(dst, uint32(p.FrameSamples))
	dst = appendU32(dst, uint32(p.Lookahead))
	dst = appendU32(dst, uint32(p.JitterDepth))
	dst = appendU32(dst, uint32(p.CausalTaps))
	dst = appendU32(dst, uint32(p.MaxNonCausalTaps))
	dst = appendU32(dst, uint32(p.FDAFBlock))
	dst = appendF64(dst, p.Mu)
	dst = appendF64(dst, p.FDAFMu)
	dst = appendF64(dst, p.EstimateNoiseRMS)
	dst = binary.BigEndian.AppendUint64(dst, p.EstimateSeed)
	var flags byte
	if p.EstimateSecondary {
		flags |= 1
	}
	if p.LossBlind {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = appendFloats(dst, p.SecondaryIR)
	dst = appendFloats(dst, p.ChannelIR)
	dst = appendFloats(dst, p.RoomIR)
	return dst
}

func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendFloats(dst []byte, xs []float64) []byte {
	dst = appendU32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = appendF64(dst, x)
	}
	return dst
}

// reader walks a record body with running bounds checks; ok latches false
// on the first truncated read so callers can decode straight-line and
// check once.
type reader struct {
	b  []byte
	ok bool
}

func (r *reader) take(n int) []byte {
	if !r.ok || len(r.b) < n {
		r.ok = false
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// floats reads a count-prefixed float vector. The count is validated
// against the bytes actually remaining before allocating, so a fuzzed
// length field cannot demand gigabytes.
func (r *reader) floats() []float64 {
	n := int(r.u32())
	if !r.ok || n > len(r.b)/8 {
		r.ok = false
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) profile() Profile {
	var p Profile
	p.SampleRate = r.f64()
	p.FrameSamples = int(r.u32())
	p.Lookahead = int(r.u32())
	p.JitterDepth = int(r.u32())
	p.CausalTaps = int(r.u32())
	p.MaxNonCausalTaps = int(r.u32())
	p.FDAFBlock = int(r.u32())
	p.Mu = r.f64()
	p.FDAFMu = r.f64()
	p.EstimateNoiseRMS = r.f64()
	p.EstimateSeed = r.u64()
	flags := r.byte()
	p.EstimateSecondary = flags&1 != 0
	p.LossBlind = flags&2 != 0
	p.SecondaryIR = r.floats()
	p.ChannelIR = r.floats()
	p.RoomIR = r.floats()
	return p
}

// snapshotFingerprint binds a record to its session: a 64-bit mix over
// the id followed by the encoded profile bytes (splitmix-style, matching
// the setup cache's hashing). Swapping two records' ids — or editing the
// profile without re-fingerprinting — breaks the hash.
func snapshotFingerprint(id uint32, profile []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(id)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	for _, b := range profile {
		h ^= uint64(b)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// Marshal encodes the snapshot into the versioned wire format.
func (snap *FleetSnapshot) Marshal() ([]byte, error) {
	out := make([]byte, 0, snapshotHeader+len(snap.Sessions)*256)
	out = binary.BigEndian.AppendUint16(out, snapshotMagic)
	out = append(out, snapshotVersion)
	out = appendU32(out, uint32(len(snap.Sessions)))
	for _, ss := range snap.Sessions {
		prof := appendProfile(nil, ss.Profile)
		body := appendU32(nil, ss.ID)
		body = binary.BigEndian.AppendUint64(body, snapshotFingerprint(ss.ID, prof))
		body = append(body, prof...)
		body = binary.BigEndian.AppendUint64(body, ss.PlayoutClock)
		body = appendF64(body, ss.DriftPPM)
		body = appendFloats(body, ss.Weights)
		out = appendU32(out, uint32(len(body)))
		out = append(out, body...)
	}
	return out, nil
}

// ParseSnapshot decodes and validates a snapshot: magic, version, record
// framing, per-record truncation, and each record's id-bound profile
// fingerprint. Any failure rejects the whole snapshot — a handoff must be
// all-or-nothing, since adopting half a fleet silently would strand the
// other half.
func ParseSnapshot(data []byte) (*FleetSnapshot, error) {
	if len(data) < snapshotHeader {
		return nil, fmt.Errorf("fleet: short snapshot (%d bytes)", len(data))
	}
	if binary.BigEndian.Uint16(data[0:2]) != snapshotMagic {
		return nil, fmt.Errorf("fleet: bad snapshot magic")
	}
	if data[2] != snapshotVersion {
		return nil, fmt.Errorf("fleet: unsupported snapshot version %d", data[2])
	}
	count := int(binary.BigEndian.Uint32(data[3:7]))
	rest := data[snapshotHeader:]
	snap := &FleetSnapshot{Version: int(data[2])}
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("fleet: snapshot truncated at record %d", i)
		}
		n := int(binary.BigEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if n > len(rest) {
			return nil, fmt.Errorf("fleet: snapshot record %d truncated (%d of %d bytes)", i, len(rest), n)
		}
		r := &reader{b: rest[:n], ok: true}
		rest = rest[n:]

		var ss SessionSnapshot
		ss.ID = r.u32()
		fp := r.u64()
		profStart := r.b
		ss.Profile = r.profile()
		profLen := len(profStart) - len(r.b)
		ss.PlayoutClock = r.u64()
		ss.DriftPPM = r.f64()
		ss.Weights = r.floats()
		if !r.ok {
			return nil, fmt.Errorf("fleet: snapshot record %d malformed", i)
		}
		if len(r.b) != 0 {
			return nil, fmt.Errorf("fleet: snapshot record %d has %d trailing bytes", i, len(r.b))
		}
		if want := snapshotFingerprint(ss.ID, profStart[:profLen]); fp != want {
			return nil, fmt.Errorf("fleet: snapshot record %d fingerprint mismatch for session %d", i, ss.ID)
		}
		snap.Sessions = append(snap.Sessions, ss)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("fleet: %d trailing bytes after %d snapshot records", len(rest), count)
	}
	return snap, nil
}

// snapshot captures the session's transferable state. The caller must own
// the session exclusively (Drain removes it from the serving map under
// the write lock first), and must call it before Close — Close rewinds
// the playout clock.
func (sess *Session) snapshot() SessionSnapshot {
	return SessionSnapshot{
		ID:           sess.ID,
		Profile:      sess.profile,
		PlayoutClock: sess.buf.jb.PlayoutClock(),
		Weights:      sess.pl.Weights(),
	}
}

// Drain stops admissions and hands back every healthy session's
// transferable state, closing each session as it is captured. Sessions
// are drained in ascending id order, one at a time — the rest of the
// fleet keeps serving (Ingest/ProcessTick interleave between records)
// until their turn, so a drain degrades throughput gradually instead of
// stopping the world. Quarantined sessions are closed but not included: a
// poisoned filter must not be warm-started onto a healthy process.
//
// ctx aborts a long drain between sessions; sessions already captured
// stay in the returned (partial) snapshot and have been closed, the rest
// keep serving. Either way the server refuses new Opens with ErrDraining
// from the first call on. Each captured session counts fleet.drained.
func (s *Server) Drain(ctx context.Context) (*FleetSnapshot, error) {
	s.draining.Store(true)
	snap := &FleetSnapshot{Version: snapshotVersion}
	for {
		if err := ctx.Err(); err != nil {
			return snap, err
		}
		s.mu.Lock()
		if len(s.order) == 0 {
			s.mu.Unlock()
			return snap, nil
		}
		id := s.order[0]
		sess := s.sessions[id]
		delete(s.sessions, id)
		s.order = s.order[1:]
		s.gSessions.Set(float64(len(s.sessions)))
		s.mu.Unlock()

		// The session is now invisible to Ingest/ProcessTick, so this
		// goroutine owns it exclusively: capture, then tear down.
		if !sess.quarantined.Load() {
			snap.Sessions = append(snap.Sessions, sess.snapshot())
			s.ctrDrained.Inc()
		}
		if err := sess.pl.Close(); err != nil {
			return snap, err
		}
		s.mu.Lock()
		s.retired.Merge(sess.reg)
		s.mu.Unlock()
	}
}

// Draining reports whether Drain has begun (admissions closed).
func (s *Server) Draining() bool { return s.draining.Load() }

// Adopt warm-starts every session in the snapshot on this server: each is
// opened from its snapshotted profile, its canceller taps are restored,
// and its jitter buffer is anchored at the snapshotted playout clock so
// the relay's next datagrams land exactly where the old process would
// have played them. perSession, when non-nil, supplies extra
// SessionOptions per adopted id (tests re-attach residual capture this
// way). Adoption is all-or-nothing per session but not transactional
// across the fleet: the error names the first session that failed, and
// earlier adoptions stand.
func (s *Server) Adopt(snap *FleetSnapshot, perSession func(id uint32) []SessionOption) error {
	if snap == nil {
		return fmt.Errorf("fleet: nil snapshot")
	}
	for _, ss := range snap.Sessions {
		var opts []SessionOption
		if perSession != nil {
			opts = perSession(ss.ID)
		}
		sess, err := s.Open(ss.ID, ss.Profile, opts...)
		if err != nil {
			return fmt.Errorf("fleet: adopt session %d: %w", ss.ID, err)
		}
		if err := sess.warmStart(ss); err != nil {
			s.CloseSession(ss.ID)
			return fmt.Errorf("fleet: adopt session %d: %w", ss.ID, err)
		}
	}
	return nil
}

// warmStart loads the snapshotted taps and playout anchor into a freshly
// opened session.
func (sess *Session) warmStart(ss SessionSnapshot) error {
	if len(ss.Weights) > 0 {
		if err := sess.pl.SetWeights(ss.Weights); err != nil {
			return err
		}
	}
	sess.buf.jb.Anchor(ss.PlayoutClock)
	return nil
}
