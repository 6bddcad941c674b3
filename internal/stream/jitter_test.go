package stream

import "testing"

// TestJitterBufferClassifiesLateDuplicateDropped pins down the three
// rejection/eviction cases: late (behind the playout clock), duplicate
// (timestamp already buffered), and dropped (on-time frame evicted by a
// depth overflow — previously miscounted as late).
func TestJitterBufferClassifiesLateDuplicateDropped(t *testing.T) {
	jb, err := NewJitterBuffer(2)
	if err != nil {
		t.Fatal(err)
	}
	if !jb.Push(&Frame{Seq: 0, Timestamp: 0, Samples: []float64{1}}) {
		t.Fatal("first frame should buffer")
	}
	dst := make([]float64, 1)
	jb.Pop(dst)
	// ts=0 is now behind the clock: late.
	if jb.Push(&Frame{Seq: 0, Timestamp: 0, Samples: []float64{1}}) {
		t.Error("late frame should report false")
	}
	if !jb.Push(&Frame{Seq: 1, Timestamp: 1, Samples: []float64{2}}) {
		t.Fatal("on-time frame should buffer")
	}
	// Same timestamp again: duplicate.
	if jb.Push(&Frame{Seq: 1, Timestamp: 1, Samples: []float64{2}}) {
		t.Error("duplicate frame should report false")
	}
	// Fill to depth, then overflow: the oldest buffered frame (ts=1) is
	// evicted and must count as dropped, not late — it arrived on time.
	if !jb.Push(&Frame{Seq: 2, Timestamp: 2, Samples: []float64{3}}) {
		t.Fatal("second on-time frame should buffer")
	}
	if !jb.Push(&Frame{Seq: 3, Timestamp: 3, Samples: []float64{4}}) {
		t.Fatal("overflowing frame should still buffer")
	}
	st := jb.Stats()
	if st.FramesLate != 1 {
		t.Errorf("late = %d, want 1", st.FramesLate)
	}
	if st.FramesDuplicate != 1 {
		t.Errorf("duplicate = %d, want 1", st.FramesDuplicate)
	}
	if st.FramesDropped != 1 {
		t.Errorf("dropped = %d, want 1", st.FramesDropped)
	}
	if st.FramesReceived != 4 {
		t.Errorf("received = %d, want 4", st.FramesReceived)
	}
}

func TestJitterBufferPopMask(t *testing.T) {
	jb, _ := NewJitterBuffer(16)
	jb.Push(&Frame{Seq: 0, Timestamp: 0, Samples: []float64{1, 2}})
	// ts 2..3 lost.
	jb.Push(&Frame{Seq: 2, Timestamp: 4, Samples: []float64{5, 6}})
	dst := make([]float64, 6)
	mask := make([]bool, 6)
	real := jb.PopMask(dst, mask)
	if real != 4 {
		t.Errorf("real = %d, want 4", real)
	}
	wantMask := []bool{true, true, false, false, true, true}
	wantDst := []float64{1, 2, 0, 0, 5, 6}
	for i := range wantMask {
		if mask[i] != wantMask[i] || dst[i] != wantDst[i] {
			t.Fatalf("i=%d: dst=%v mask=%v", i, dst, mask)
		}
	}
	// The mask must be fully reset on the next pop (all concealed here).
	if real := jb.PopMask(dst, mask); real != 0 {
		t.Errorf("empty buffer delivered %d real samples", real)
	}
	for i, m := range mask {
		if m {
			t.Fatalf("stale mask bit %d survived", i)
		}
	}
}

func TestJitterBufferAnchor(t *testing.T) {
	jb, _ := NewJitterBuffer(16)
	jb.Anchor(0)
	// First frame arrives late in the capture clock; without the anchor it
	// would have re-based the stream and hidden the initial loss.
	jb.Push(&Frame{Seq: 2, Timestamp: 4, Samples: []float64{5, 6}})
	dst := make([]float64, 6)
	mask := make([]bool, 6)
	real := jb.PopMask(dst, mask)
	if real != 2 {
		t.Errorf("real = %d, want 2", real)
	}
	if dst[4] != 5 || dst[5] != 6 || mask[0] || !mask[4] {
		t.Errorf("anchored playout misaligned: dst=%v mask=%v", dst, mask)
	}
	// Anchoring after the clock started is a no-op.
	jb.Anchor(100)
	jb.Push(&Frame{Seq: 3, Timestamp: 6, Samples: []float64{7}})
	if real := jb.Pop(dst[:1]); real != 1 || dst[0] != 7 {
		t.Errorf("post-anchor pop broken: real=%d dst0=%g", real, dst[0])
	}
}

// TestJitterBufferOverlappingFrames: a frame fully shadowed by an earlier,
// longer frame must be discarded, not replayed.
func TestJitterBufferOverlappingFrames(t *testing.T) {
	jb, _ := NewJitterBuffer(16)
	jb.Push(&Frame{Seq: 0, Timestamp: 0, Samples: []float64{1, 2, 3, 4}})
	jb.Push(&Frame{Seq: 1, Timestamp: 2, Samples: []float64{9, 9}})
	dst := make([]float64, 4)
	if real := jb.Pop(dst); real != 4 {
		t.Errorf("real = %d, want 4", real)
	}
	if dst[2] != 3 || dst[3] != 4 {
		t.Errorf("earlier frame should win the overlap: %v", dst)
	}
	// The shadowed frame is discarded (not replayed) by the next pop.
	if real := jb.Pop(dst); real != 0 {
		t.Errorf("shadowed frame replayed: real = %d", real)
	}
	if jb.Buffered() != 0 {
		t.Errorf("shadowed frame not discarded: %d buffered", jb.Buffered())
	}
}

func TestJitterBufferPartialFrameAcrossPops(t *testing.T) {
	jb, _ := NewJitterBuffer(16)
	jb.Push(&Frame{Seq: 0, Timestamp: 0, Samples: []float64{1, 2, 3, 4}})
	dst := make([]float64, 3)
	if real := jb.Pop(dst); real != 3 {
		t.Errorf("first pop real = %d, want 3", real)
	}
	if real := jb.Pop(dst); real != 1 {
		t.Errorf("second pop real = %d, want 1", real)
	}
	if dst[0] != 4 || dst[1] != 0 {
		t.Errorf("partial frame resume broken: %v", dst)
	}
}

// BenchmarkJitterBufferConcealedPop measures the fully-concealed pop path
// with a deep buffer of far-future frames — the case that used to cost a
// full map scan per concealed sample (O(len(dst)·depth)) and is now one
// ordered-index lookup per pop (O(len(dst)+depth)).
func BenchmarkJitterBufferConcealedPop(b *testing.B) {
	const depth = 256
	jb, err := NewJitterBuffer(depth)
	if err != nil {
		b.Fatal(err)
	}
	jb.Anchor(0)
	samples := make([]float64, 80)
	for i := 0; i < depth; i++ {
		jb.Push(&Frame{Seq: uint32(i), Timestamp: 1<<40 + uint64(i*len(samples)), Samples: samples})
	}
	dst := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jb.Pop(dst)
	}
}

// Pop is PopMask without the mask: the tests' shorthand.
func (j *JitterBuffer) Pop(dst []float64) int { return j.PopMask(dst, nil) }

// Pop drains the next len(dst) ordered samples without the mask.
func (r *Receiver) Pop(dst []float64) int { return r.jb.PopMask(dst, nil) }
