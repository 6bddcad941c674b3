package stream

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Sender streams audio frames to a UDP peer. It is the network-transport
// face of the IoT relay.
type Sender struct {
	conn         net.Conn
	frameSamples int
	seq          uint32
	clock        uint64
	pending      []float64
	fec          *FECEncoder
	link         *LossyLink
}

// NewSender dials the receiver address ("host:port") and returns a sender
// that packs frameSamples samples per datagram.
func NewSender(addr string, frameSamples int) (*Sender, error) {
	if frameSamples <= 0 || frameSamples > MaxFrameSamples {
		return nil, fmt.Errorf("stream: frame size %d outside (0, %d]", frameSamples, MaxFrameSamples)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	return &Sender{conn: conn, frameSamples: frameSamples}, nil
}

// EnableFEC turns on forward error correction: one parity frame follows
// every group of K data frames, letting the receiver reconstruct a single
// lost frame per group. Call before the first Send.
func (s *Sender) EnableFEC(group int) error {
	enc, err := NewFECEncoder(group)
	if err != nil {
		return err
	}
	s.fec = enc
	return nil
}

// Send queues samples and transmits every complete frame. Partial frames
// wait for more samples (call Flush to force them out).
func (s *Sender) Send(samples []float64) error {
	s.pending = append(s.pending, samples...)
	for len(s.pending) >= s.frameSamples {
		if err := s.emit(s.pending[:s.frameSamples]); err != nil {
			return err
		}
		s.pending = s.pending[s.frameSamples:]
	}
	return nil
}

// Impair inserts a deterministic fault-injection link in front of the
// socket: every frame (data and parity) passes through link, which may
// drop, duplicate, delay, or reorder it before it reaches the wire. Call
// before the first Send; Flush drains frames the link still holds.
func (s *Sender) Impair(link *LossyLink) { s.link = link }

// Flush transmits any buffered partial frame and drains the impairment
// link, if one is installed.
func (s *Sender) Flush() error {
	if len(s.pending) > 0 {
		block := s.pending
		s.pending = nil
		if err := s.emit(block); err != nil {
			return err
		}
	}
	if s.link != nil {
		for _, f := range s.link.Drain() {
			if err := s.write(f); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Sender) emit(block []float64) error {
	f := Frame{Seq: s.seq, Timestamp: s.clock, Samples: block}
	if err := s.transmit(&f); err != nil {
		return err
	}
	s.seq++
	s.clock += uint64(len(block))
	if s.fec != nil {
		if parity := s.fec.Add(&f); parity != nil {
			parity.Seq = s.seq
			s.seq++
			if err := s.transmit(parity); err != nil {
				return err
			}
		}
	}
	return nil
}

// transmit routes one frame through the impairment link (when installed)
// and writes whatever the link delivers this slot.
func (s *Sender) transmit(f *Frame) error {
	if s.link == nil {
		return s.write(f)
	}
	for _, out := range s.link.Transfer(f) {
		if err := s.write(out); err != nil {
			return err
		}
	}
	return nil
}

func (s *Sender) write(f *Frame) error {
	buf, err := f.Marshal()
	if err != nil {
		return err
	}
	if _, err := s.conn.Write(buf); err != nil {
		return fmt.Errorf("stream: send frame %d: %w", f.Seq, err)
	}
	return nil
}

// Close flushes any buffered partial frame (and drains the impairment
// link, if one is installed) before releasing the socket, so the tail of
// the stream is not silently dropped. The first error wins: a flush
// failure is reported even though the socket is still closed.
func (s *Sender) Close() error {
	ferr := s.Flush()
	cerr := s.conn.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Receiver listens for audio frames on a UDP port and feeds a jitter
// buffer. It is the network-transport face of the ear device.
//
// One goroutine Polls; the jitter buffer, Stats, Recovered, and Buffered
// are safe to call from others (a telemetry scraper, a supervisor). The
// corrupt/recovered counters are atomics for exactly that reason: they
// used to be plain fields written by Poll, and a concurrent Stats read —
// routine once many receivers share a process with a stats fan-in — was a
// data race.
type Receiver struct {
	conn      *net.UDPConn
	jb        *JitterBuffer
	buf       []byte
	fec       *FECDecoder
	recovered atomic.Uint64
	corrupt   atomic.Uint64
	obs       func(timestamp uint64)
}

// NewReceiver listens on addr (e.g. "127.0.0.1:0") with a jitter buffer of
// the given frame depth.
func NewReceiver(addr string, depth int) (*Receiver, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen %s: %w", addr, err)
	}
	jb, err := NewJitterBuffer(depth)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Receiver{conn: conn, jb: jb, buf: make([]byte, 2048), fec: NewFECDecoder(4 * depth)}, nil
}

// Addr returns the bound listen address (useful with port 0).
func (r *Receiver) Addr() string { return r.conn.LocalAddr().String() }

// Poll reads at most one datagram, waiting up to timeout. It returns true
// only when a frame actually entered the jitter buffer — a data frame, or
// a data frame FEC reconstructed from a parity frame. Parity frames that
// recover nothing, late frames, and duplicates consume a datagram but
// return false, as does a timeout; use Stats and Recovered to tell the
// cases apart. A malformed datagram (stray traffic, bit rot) is counted
// in Stats().FramesCorrupt and otherwise ignored — one bad packet must
// not fail the receive loop of a device whose whole job is riding out a
// bad link.
func (r *Receiver) Poll(timeout time.Duration) (bool, error) {
	if err := r.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return false, err
	}
	n, _, err := r.conn.ReadFromUDP(r.buf)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return false, nil
		}
		return false, fmt.Errorf("stream: read: %w", err)
	}
	f, err := Unmarshal(r.buf[:n])
	if err != nil {
		r.corrupt.Add(1)
		return false, nil
	}
	out := r.fec.Add(f)
	if out == nil {
		return false, nil
	}
	if out != f {
		r.recovered.Add(1)
	}
	ok := r.jb.Push(out)
	if ok && out == f && r.obs != nil {
		r.obs(out.Timestamp)
	}
	return ok, nil
}

// SetFrameObserver registers fn to run, inside Poll, for every direct data
// frame accepted into the jitter buffer, with the frame's relay-clock
// timestamp. The callback fires at the frame's true arrival instant, which
// is what a DriftEstimator needs to fit the relay-vs-ear clock slope; FEC
// reconstructions are excluded because they surface at the parity frame's
// arrival time, not the lost frame's, and would bias the fit.
func (r *Receiver) SetFrameObserver(fn func(timestamp uint64)) { r.obs = fn }

// Recovered returns how many lost frames FEC has reconstructed.
func (r *Receiver) Recovered() uint64 { return r.recovered.Load() }

// PopMask drains the next len(dst) ordered samples from the jitter buffer
// plus the concealment mask: mask[i] is set true where dst[i] is a real
// received sample and false where it was zero-filled.
func (r *Receiver) PopMask(dst []float64, mask []bool) int { return r.jb.PopMask(dst, mask) }

// Stats returns jitter-buffer statistics plus the receiver's own
// malformed-datagram count.
func (r *Receiver) Stats() JitterStats {
	st := r.jb.Stats()
	st.FramesCorrupt = r.corrupt.Load()
	return st
}

// PlayoutClock returns the jitter buffer's playout clock.
func (r *Receiver) PlayoutClock() uint64 { return r.jb.PlayoutClock() }

// Buffered returns the number of frames waiting in the jitter buffer.
func (r *Receiver) Buffered() int { return r.jb.Buffered() }

// Close releases the socket.
func (r *Receiver) Close() error { return r.conn.Close() }
