package fleet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mute/internal/stream"
)

func validDatagram(t testing.TB, id uint32, seq uint32, ts uint64, n int) []byte {
	t.Helper()
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(i%7) / 10
	}
	d, err := marshalEnvelope(id, &stream.Frame{Seq: seq, Timestamp: ts, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEnvelopeRoundTrip(t *testing.T) {
	want := &stream.Frame{Seq: 42, Timestamp: 4200, Samples: []float64{0.1, -0.5, 1}}
	d, err := marshalEnvelope(77, want)
	if err != nil {
		t.Fatal(err)
	}
	id, payload, err := ParseEnvelope(d)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 {
		t.Fatalf("session id = %d, want 77", id)
	}
	wire, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, wire) {
		t.Fatal("inner frame bytes differ from stream.Frame wire format")
	}
	got, err := stream.Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || got.Timestamp != want.Timestamp || len(got.Samples) != len(want.Samples) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestAppendEnvelopeReusesBuffer(t *testing.T) {
	frame := bytes.Repeat([]byte{0xAB}, 32)
	buf := make([]byte, 0, MaxDatagram)
	d := AppendEnvelope(buf, 5, frame)
	if &d[0] != &buf[:1][0] {
		t.Fatal("AppendEnvelope reallocated despite sufficient capacity")
	}
	if len(d) != EnvelopeOverhead+len(frame) {
		t.Fatalf("datagram length %d, want %d", len(d), EnvelopeOverhead+len(frame))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		d = AppendEnvelope(d[:0], 5, frame)
	}); allocs != 0 {
		t.Fatalf("AppendEnvelope allocates %.1f times on the reuse path, want 0", allocs)
	}
}

func TestParseEnvelopeErrors(t *testing.T) {
	good := validDatagram(t, 1, 0, 0, 8)
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:EnvelopeOverhead-1],
		"bad magic":   append([]byte{0x00, 0x00}, good[2:]...),
		"bad version": append([]byte{0x4D, 0x46, 0xFF}, good[3:]...),
	}
	for name, d := range cases {
		if _, _, err := ParseEnvelope(d); err == nil {
			t.Errorf("%s: ParseEnvelope accepted a malformed datagram", name)
		}
	}
}

// TestCoalescedDatagram pins the batching contract end to end: records
// for several sessions packed into one datagram demux to their own
// buffers, a trailing truncated record is charged to the session its
// envelope addressed, and NextEnvelope finds the same boundaries the
// demux does.
func TestCoalescedDatagram(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	p := tinyProfile()
	for _, id := range []uint32{1, 2} {
		if _, err := srv.Open(id, p); err != nil {
			t.Fatal(err)
		}
	}
	d := validDatagram(t, 1, 0, 0, 16)
	d = append(d, validDatagram(t, 2, 0, 0, 16)...)
	d = append(d, validDatagram(t, 1, 1, 16, 16)...)

	var ids []uint32
	for rem := d; len(rem) > 0; {
		id, frame, rest, err := NextEnvelope(rem)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.Unmarshal(frame); err != nil {
			t.Fatalf("record for session %d did not decode: %v", id, err)
		}
		ids = append(ids, id)
		rem = rest
	}
	if want := []uint32{1, 2, 1}; len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 1 {
		t.Fatalf("record walk found sessions %v, want %v", ids, want)
	}

	if err := srv.Ingest(d); err != nil {
		t.Fatal(err)
	}
	if got := srv.Lookup(1).Stats().FramesReceived; got != 2 {
		t.Errorf("session 1 received %d frames from the batch, want 2", got)
	}
	if got := srv.Lookup(2).Stats().FramesReceived; got != 1 {
		t.Errorf("session 2 received %d frames from the batch, want 1", got)
	}

	// A batch whose last record is truncated: the two whole records land,
	// the stub is charged to the session its envelope addressed.
	d2 := validDatagram(t, 1, 2, 32, 16)
	d2 = append(d2, validDatagram(t, 2, 1, 16, 16)...)
	d2 = append(d2, validDatagram(t, 2, 2, 32, 16)[:EnvelopeOverhead+5]...)
	if err := srv.Ingest(d2); err == nil {
		t.Error("truncated trailing record went unreported")
	}
	if got := srv.Lookup(2).Stats().FramesCorrupt; got != 1 {
		t.Errorf("session 2 corrupt count = %d, want 1 (the truncated stub)", got)
	}
	if got := srv.Lookup(2).Stats().FramesReceived; got != 2 {
		t.Errorf("session 2 received %d frames, want 2", got)
	}
}

// tinyProfile keeps per-iteration fuzz setup cheap.
func tinyProfile() Profile {
	p := DefaultProfile()
	p.FrameSamples = 16
	p.Lookahead = 16
	p.JitterDepth = 4
	p.CausalTaps = 4
	p.MaxNonCausalTaps = 2
	return p
}

// FuzzFleetDemux throws arbitrary datagrams at a two-session server:
// whatever the bytes — truncated envelopes, corrupt inner frames,
// duplicate deliveries, ids of never-opened or just-closed sessions —
// the demux must not panic, must keep ticking, and must never let a
// datagram addressed elsewhere touch session 2's state.
func FuzzFleetDemux(f *testing.F) {
	f.Add(validDatagram(f, 1, 0, 0, 16))           // in-session delivery
	f.Add(validDatagram(f, 2, 3, 48, 16))          // the observed session
	f.Add(validDatagram(f, 99, 0, 0, 16))          // unknown session
	f.Add(validDatagram(f, 1, 0, 0, 16)[:20])      // truncated inner frame
	f.Add([]byte{})                                // empty
	f.Add([]byte{0x4D, 0x46})                      // short envelope
	f.Add([]byte{0x4D, 0x46, 1, 0, 0, 0, 1})       // envelope only, no frame
	f.Add([]byte{0x00, 0x11, 1, 0, 0, 0, 1, 0x4D}) // bad magic
	f.Add([]byte{0x4D, 0x46, 9, 0, 0, 0, 1})       // bad version
	parity := validDatagram(f, 1, 5, 0, 16)
	parity[EnvelopeOverhead+3] = 1 | 4<<1 // flag the inner frame as FEC parity
	f.Add(parity)
	huge := validDatagram(f, 1, 0, 0, 16)
	binary.BigEndian.PutUint16(huge[EnvelopeOverhead+16:], 0xFFFF) // absurd sample count
	f.Add(huge)
	coalesced := append(validDatagram(f, 1, 4, 64, 16), validDatagram(f, 2, 4, 64, 16)...)
	f.Add(coalesced) // two records in one datagram

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(Config{})
		defer srv.Close()
		p := tinyProfile()
		for _, id := range []uint32{1, 2} {
			if _, err := srv.Open(id, p); err != nil {
				t.Fatal(err)
			}
		}
		before := srv.Lookup(2).Stats()
		srv.Ingest(data) // first delivery: any error is fine, panics are not
		srv.Ingest(data) // duplicate delivery of the same datagram
		// Walk the datagram's records the way the demux does: only a record
		// addressed to session 2 may touch session 2.
		addressed2 := false
		for rem := data; len(rem) > 0; {
			id, _, rest, err := NextEnvelope(rem)
			if err != nil {
				break
			}
			if id == 2 {
				addressed2 = true
			}
			rem = rest
		}
		if after := srv.Lookup(2).Stats(); !addressed2 && after != before {
			t.Fatalf("datagram addressed elsewhere mutated session 2: %+v → %+v", before, after)
		}
		// A session that just closed is a stale id: the demux must route
		// its datagrams to the unknown-session counter, not a dead buffer.
		if err := srv.CloseSession(1); err != nil {
			t.Fatal(err)
		}
		srv.Ingest(data)
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
		in := validDatagram(t, 2, 7, 7*16, 16)
		if err := srv.Ingest(in); err != nil {
			t.Fatalf("valid frame rejected after hostile datagrams: %v", err)
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
	})
}
