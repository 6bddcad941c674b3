package dsp

import (
	"math"
	"sync"
)

// Memo is a content-keyed memoization cache for pure computations over
// float slices: the simulator's acoustic pre-renders and the fleet's
// per-session setup both run the same few convolutions and calibrations
// over and over, and keying on the *content* of the inputs (not their
// identity) lets any later caller with equal floats reuse the first
// result. The cached slice is the exact output of the original
// computation, so memoization is bit-invisible to every consumer.
//
// Cached slices are shared across callers and MUST be treated as
// read-only. Entries are evicted FIFO past a fixed capacity, bounding
// memory across long sweeps and fleets, and the cache is safe for
// concurrent use.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey][]float64
	order   []memoKey
	cap     int
	hits    uint64
	misses  uint64
}

// memoKey identifies a computation by the content of its two float-slice
// inputs plus a caller-chosen kind tag. Two independent 64-bit mixes plus
// both lengths make accidental collisions implausible (~2^-128 per pair)
// without retaining the inputs.
type memoKey struct {
	aHash, bHash uint64
	aLen, bLen   int
	kind         uint8
}

// NewMemo returns an empty cache holding at most capacity entries.
func NewMemo(capacity int) *Memo {
	return &Memo{entries: make(map[memoKey][]float64, capacity), cap: capacity}
}

// hashFloats mixes a float slice's raw bit patterns (splitmix-style
// xor-multiply-shift). NaN payloads and signed zeros hash by their exact
// bits, matching the bit-identity contract of the cache.
func hashFloats(xs []float64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= math.Float64bits(x)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// Get returns compute's result for (a, b, kind), computing it on the
// first request and serving the cached slice afterwards. An error is
// returned as is and nothing is cached.
func (m *Memo) Get(a, b []float64, kind uint8, compute func() ([]float64, error)) ([]float64, error) {
	key := memoKey{hashFloats(a), hashFloats(b), len(a), len(b), kind}
	m.mu.Lock()
	if out, ok := m.entries[key]; ok {
		m.hits++
		m.mu.Unlock()
		return out, nil
	}
	m.misses++
	m.mu.Unlock()

	// Compute outside the lock: concurrent first requests for the same key
	// may duplicate the work, but both produce identical bits and only one
	// result is retained.
	out, err := compute()
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if cached, ok := m.entries[key]; ok {
		out = cached
	} else {
		if len(m.order) >= m.cap {
			oldest := m.order[0]
			m.order = m.order[1:]
			delete(m.entries, oldest)
		}
		m.entries[key] = out
		m.order = append(m.order, key)
	}
	m.mu.Unlock()
	return out, nil
}

// Stats reports lifetime hit/miss counters.
func (m *Memo) Stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Reset empties the cache and zeroes its counters.
func (m *Memo) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[memoKey][]float64, m.cap)
	m.order = nil
	m.hits, m.misses = 0, 0
}
