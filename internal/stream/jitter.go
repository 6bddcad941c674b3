package stream

import (
	"fmt"
	"sort"
	"sync"
)

// JitterStats counts transport events observed by the buffer.
type JitterStats struct {
	// FramesReceived is the number of frames accepted.
	FramesReceived uint64
	// FramesDuplicate counts frames whose samples were already consumed
	// or buffered.
	FramesDuplicate uint64
	// FramesLate counts frames that arrived after their playout point.
	FramesLate uint64
	// FramesDropped counts on-time frames evicted by a depth overflow.
	FramesDropped uint64
	// FramesCorrupt counts datagrams that failed to unmarshal (bad magic,
	// truncated payload, ...). Maintained by the network Receiver; the
	// in-process buffer never sees wire bytes.
	FramesCorrupt uint64
	// SamplesConcealed counts zero-filled (lost) samples handed out.
	SamplesConcealed uint64
	// SamplesDelivered counts real samples handed out.
	SamplesDelivered uint64
}

// JitterBuffer reassembles timestamped frames into an ordered sample
// stream. Missing samples are concealed with zeros, and PopMask reports
// exactly which samples were concealed so a loss-aware canceller can
// freeze adaptation instead of chasing the zeros. It is safe for one
// writer and one reader goroutine.
type JitterBuffer struct {
	mu      sync.Mutex
	frames  map[uint64]*Frame // keyed by Timestamp
	order   []uint64          // buffered timestamps, ascending
	next    uint64            // capture-clock index of the next sample out
	started bool
	depth   int // max buffered frames
	stats   JitterStats
	release func(*Frame)
}

// NewJitterBuffer creates a buffer holding at most depth frames.
func NewJitterBuffer(depth int) (*JitterBuffer, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("stream: jitter depth must be positive, got %d", depth)
	}
	return &JitterBuffer{frames: make(map[uint64]*Frame), depth: depth}, nil
}

// SetRelease registers fn to receive every frame the buffer is finished
// with: frames fully consumed by a PopMask, frames discarded because earlier
// coverage shadowed them, frames evicted by a depth overflow, and frames
// dropped by Reset. PopMask copies samples out before releasing, so fn may
// recycle the frame immediately (the fleet server returns frames to a
// sync.Pool this way). Frames Push rejects (late, duplicate) were never
// retained and are NOT passed to fn — the pusher still owns those. fn runs
// with the buffer's lock held; it must not call back into the buffer.
func (j *JitterBuffer) SetRelease(fn func(*Frame)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.release = fn
}

// drop releases a frame the buffer retained and is now done with.
func (j *JitterBuffer) drop(f *Frame) {
	if j.release != nil {
		j.release(f)
	}
}

// popFront removes the first k timestamps from the ascending index while
// keeping the slice anchored to the front of its backing array. Reslicing
// with order[k:] instead would bleed capacity off the front until append
// has to reallocate — a small but periodic steady-state allocation the
// zero-alloc serving path cannot afford.
func (j *JitterBuffer) popFront(k int) {
	n := copy(j.order, j.order[k:])
	j.order = j.order[:n]
}

// Reset drops every buffered frame (releasing each through the SetRelease
// hook) and rewinds the playout clock to the unstarted state, keeping the
// lifetime stats. It is the teardown path for pooled deployments: a
// session server must hand its remaining frames back to the frame pool
// when a session closes, not leak them to the garbage collector.
func (j *JitterBuffer) Reset() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ts := range j.order {
		j.drop(j.frames[ts])
		delete(j.frames, ts)
	}
	j.order = j.order[:0]
	j.next = 0
	j.started = false
}

// Anchor pins the playout clock to capture index ts, for receivers that
// know the stream epoch out of band (e.g. the in-process simulator, whose
// capture clock starts at 0). Without it the first pushed frame anchors
// the clock — wrong when that frame is not the first one sent. Anchoring
// after the clock has started is a no-op.
func (j *JitterBuffer) Anchor(ts uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started {
		return
	}
	j.next = ts
	j.started = true
}

// Push inserts a received frame and reports whether it was buffered. The
// first frame anchors the playout clock (unless Anchor ran first). Frames
// entirely before the playout point are dropped as late, duplicates are
// ignored, and a full buffer evicts its oldest frame (counted as dropped,
// not late — it arrived on time) to bound memory; only a true return
// means the frame's samples can still reach a PopMask.
//
// Tie-break under skewed or non-monotonic re-stamping: for two frames
// with the same timestamp, the first received wins and the later one is
// counted FramesDuplicate; for overlapping timestamp ranges, the earliest
// timestamp wins the overlapped samples and a later-starting frame
// contributes only its non-overlapped suffix (see PopMask's ordered
// walk). A frame wholly shadowed by earlier coverage is discarded when
// the walk passes it. Playout order is always by timestamp, never by
// arrival, so the clock PopMask advances is monotone regardless of what
// the re-stamped input does.
func (j *JitterBuffer) Push(f *Frame) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.started {
		j.next = f.Timestamp
		j.started = true
	}
	if f.Timestamp+uint64(len(f.Samples)) <= j.next {
		j.stats.FramesLate++
		return false
	}
	if _, dup := j.frames[f.Timestamp]; dup {
		j.stats.FramesDuplicate++
		return false
	}
	if len(j.frames) >= j.depth {
		oldest := j.order[0]
		j.popFront(1)
		j.drop(j.frames[oldest])
		delete(j.frames, oldest)
		j.stats.FramesDropped++
	}
	j.frames[f.Timestamp] = f
	i := sort.Search(len(j.order), func(k int) bool { return j.order[k] > f.Timestamp })
	j.order = append(j.order, 0)
	copy(j.order[i+1:], j.order[i:])
	j.order[i] = f.Timestamp
	j.stats.FramesReceived++
	return true
}

// PopMask fills dst with the next len(dst) samples of the reassembled
// stream, zero-filling gaps, and advances the playout clock. It returns
// the number of real (non-concealed) samples delivered. Before the clock
// has started, dst is all zeros and the clock does not advance. When mask
// is non-nil it must be at least len(dst) long, and mask[i] is set true
// where dst[i] is a real received sample and false where it was concealed
// (zero-filled). The walk follows the ordered frame index, so a
// fully-concealed pop costs O(len(dst)) rather than a map scan per sample.
func (j *JitterBuffer) PopMask(dst []float64, mask []bool) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range dst {
		dst[i] = 0
	}
	if mask != nil {
		for i := range dst {
			mask[i] = false
		}
	}
	if !j.started {
		return 0
	}
	real := 0
	end := j.next + uint64(len(dst))
	i := 0
	for i < len(dst) && len(j.order) > 0 {
		ts := j.order[0]
		f := j.frames[ts]
		cur := j.next + uint64(i)
		if ts+uint64(len(f.Samples)) <= cur {
			// Fully in the past (overlapped by an earlier frame).
			j.drop(f)
			delete(j.frames, ts)
			j.popFront(1)
			continue
		}
		if ts >= end {
			break // earliest frame starts beyond this window: conceal the rest
		}
		if ts > cur {
			i += int(ts - cur) // concealed gap before the frame
			cur = ts
		}
		off := int(cur - ts)
		n := len(f.Samples) - off
		if rem := len(dst) - i; n > rem {
			n = rem
		}
		copy(dst[i:i+n], f.Samples[off:off+n])
		if mask != nil {
			for k := i; k < i+n; k++ {
				mask[k] = true
			}
		}
		i += n
		real += n
		if off+n >= len(f.Samples) {
			j.drop(f)
			delete(j.frames, ts)
			j.popFront(1)
		}
	}
	j.stats.SamplesDelivered += uint64(real)
	j.stats.SamplesConcealed += uint64(len(dst) - real)
	j.next += uint64(len(dst))
	return real
}

// PlayoutClock returns the capture-clock index of the next sample PopMask
// will hand out — the consumer-side view of how far into the relay's
// clock the playout has advanced. Zero before the clock has started.
func (j *JitterBuffer) PlayoutClock() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Buffered returns the number of frames currently held.
func (j *JitterBuffer) Buffered() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.frames)
}

// Stats returns a snapshot of the transport counters.
func (j *JitterBuffer) Stats() JitterStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}
