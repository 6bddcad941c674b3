package fleet

import (
	"encoding/binary"
	"fmt"

	"mute/internal/stream"
)

// The fleet envelope prefixes every stream.Frame with the session it
// belongs to, so thousands of relay→ear sessions can share one server
// socket. The inner frame format is untouched: an enveloped record is
//
//	magic "MF" (2) | version (1) | session id (4) | stream.Frame wire bytes
//
// and stripping the first EnvelopeOverhead bytes yields exactly what a
// single-session muteear receiver would have read off its own socket.
//
// A fleet datagram carries one or more records back to back (datagram
// coalescing): the inner frame's wire length is self-describing
// (stream.WireSize), so NextEnvelope can walk record boundaries without
// decoding payloads. At fleet scale the per-datagram syscall is the
// serving path's dominant fixed cost — packing the frames of many
// sessions that tick together into one datagram amortizes it across the
// batch, the transport-side analogue of the FDAF profile batching
// per-sample MACs into FFTs.
const (
	envelopeMagic   = 0x4D46 // "MF"
	envelopeVersion = 1
	// EnvelopeOverhead is the envelope header size in bytes.
	EnvelopeOverhead = 2 + 1 + 4
	// MaxDatagram bounds a fleet datagram: the envelope plus a maximal
	// inner frame still fits the transport's 1200-byte payload budget
	// comfortably.
	MaxDatagram = EnvelopeOverhead + 1200
)

// AppendEnvelope appends the envelope header for session id followed by
// the frame wire bytes to dst and returns the extended slice. The
// allocation-free send path: reuse dst's backing array across sends.
func AppendEnvelope(dst []byte, id uint32, frame []byte) []byte {
	var hdr [EnvelopeOverhead]byte
	binary.BigEndian.PutUint16(hdr[0:2], envelopeMagic)
	hdr[2] = envelopeVersion
	binary.BigEndian.PutUint32(hdr[3:7], id)
	dst = append(dst, hdr[:]...)
	return append(dst, frame...)
}

// ParseEnvelope splits a fleet datagram into its session id and the inner
// frame bytes (a subslice of datagram — no copy, no allocation). The
// inner frame is NOT validated here; the demux decodes it against the
// addressed session so a malformed payload is charged to that session's
// corrupt counter rather than dropped anonymously.
func ParseEnvelope(datagram []byte) (id uint32, frame []byte, err error) {
	if len(datagram) < EnvelopeOverhead {
		return 0, nil, fmt.Errorf("fleet: short envelope (%d bytes)", len(datagram))
	}
	if binary.BigEndian.Uint16(datagram[0:2]) != envelopeMagic {
		return 0, nil, fmt.Errorf("fleet: bad envelope magic")
	}
	if datagram[2] != envelopeVersion {
		return 0, nil, fmt.Errorf("fleet: unsupported envelope version %d", datagram[2])
	}
	return binary.BigEndian.Uint32(datagram[3:7]), datagram[EnvelopeOverhead:], nil
}

// NextEnvelope parses the first record of a (possibly coalesced) fleet
// datagram and returns the bytes after it, for walking a datagram record
// by record. When the inner frame's header does not yield a usable
// record boundary — truncated, or an out-of-range sample count — the
// whole remainder is returned as the frame with no rest, so the
// malformed payload is still charged to the session the envelope
// addressed. A malformed *envelope* is unattributable and returns an
// error; the remainder of the datagram is lost with it, which is the
// right trade — record boundaries downstream of garbage cannot be
// trusted.
func NextEnvelope(datagram []byte) (id uint32, frame, rest []byte, err error) {
	id, payload, err := ParseEnvelope(datagram)
	if err != nil {
		return 0, nil, nil, err
	}
	n := stream.WireSize(payload)
	if n == 0 || n > len(payload) {
		return id, payload, nil, nil
	}
	return id, payload[:n], payload[n:], nil
}
