package acoustics

import "sync"

// rirKey identifies one impulse-response computation. Room and Point are
// small value types with no pointers, so the struct is directly comparable
// and usable as a map key.
type rirKey struct {
	room Room
	src  Point
	dst  Point
	rate float64
}

// rirEntry is a cached impulse response plus an access tick for eviction.
type rirEntry struct {
	h       []float64
	lastUse uint64
}

// rirCacheCap bounds the cache. A full evaluation run touches a few dozen
// distinct geometries (sources × microphones × the Figure 19 relay grid);
// 256 entries of ~1–1.5 k taps each is a couple of MB at most.
const rirCacheCap = 256

// rirCache memoizes image-source impulse responses process-wide. Every
// scheme simulated for a figure replays the same room geometry, so without
// the cache a 4-scheme comparison recomputes each O(order³) enumeration
// four times. Guarded by a plain mutex: the hit path is a map lookup plus a
// copy, and the expensive compute runs outside the lock.
var rirCache struct {
	mu   sync.Mutex
	m    map[rirKey]*rirEntry
	tick uint64
}

func cachedImpulseResponse(r Room, src, dst Point, sampleRate float64) ([]float64, error) {
	key := rirKey{room: r, src: src, dst: dst, rate: sampleRate}

	rirCache.mu.Lock()
	if rirCache.m == nil {
		rirCache.m = make(map[rirKey]*rirEntry)
	}
	rirCache.tick++
	if e, ok := rirCache.m[key]; ok {
		e.lastUse = rirCache.tick
		out := make([]float64, len(e.h))
		copy(out, e.h)
		rirCache.mu.Unlock()
		return out, nil
	}
	rirCache.mu.Unlock()

	// Compute outside the lock; concurrent misses on the same key simply
	// compute twice and store identical values, which costs less than
	// serializing every distinct-key computation behind one mutex.
	h, err := r.computeImpulseResponse(src, dst, sampleRate)
	if err != nil {
		return nil, err
	}

	stored := make([]float64, len(h))
	copy(stored, h)
	rirCache.mu.Lock()
	if len(rirCache.m) >= rirCacheCap {
		evictOldestRIRLocked()
	}
	rirCache.m[key] = &rirEntry{h: stored, lastUse: rirCache.tick}
	rirCache.mu.Unlock()
	return h, nil
}

// evictOldestRIRLocked drops the least-recently-used entry. Linear scan is
// fine at this capacity; eviction is expected to be rare in practice.
func evictOldestRIRLocked() {
	var oldestKey rirKey
	var oldest uint64
	first := true
	for k, e := range rirCache.m {
		if first || e.lastUse < oldest {
			oldestKey, oldest = k, e.lastUse
			first = false
		}
	}
	if !first {
		delete(rirCache.m, oldestKey)
	}
}
