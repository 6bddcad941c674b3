package acoustics

import (
	"sync"
	"testing"
)

// clearRIRCache empties the process-wide impulse-response cache.
func clearRIRCache() {
	rirCache.mu.Lock()
	rirCache.m = nil
	rirCache.tick = 0
	rirCache.mu.Unlock()
}

// rirCacheLen reports how many impulse responses the cache holds.
func rirCacheLen() int {
	rirCache.mu.Lock()
	defer rirCache.mu.Unlock()
	return len(rirCache.m)
}

func TestRIRCacheHitReturnsIdenticalResponse(t *testing.T) {
	clearRIRCache()
	defer clearRIRCache()

	room := DefaultRoom()
	src := Point{1, 1, 1.5}
	dst := Point{3, 2, 1.2}

	h1, err := room.ImpulseResponse(src, dst, 8000)
	if err != nil {
		t.Fatalf("first ImpulseResponse: %v", err)
	}
	h2, err := room.ImpulseResponse(src, dst, 8000)
	if err != nil {
		t.Fatalf("second ImpulseResponse: %v", err)
	}
	if len(h1) != len(h2) {
		t.Fatalf("length mismatch: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("tap %d differs: %g vs %g", i, h1[i], h2[i])
		}
	}
	if n := rirCacheLen(); n != 1 {
		t.Fatalf("want 1 cached response, got %d", n)
	}
	// A hit copies the stored taps: mark them and the next call must
	// return the mark rather than recompute.
	rirCache.mu.Lock()
	for _, e := range rirCache.m {
		e.h[0] = 12345
	}
	rirCache.mu.Unlock()
	h3, err := room.ImpulseResponse(src, dst, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if h3[0] != 12345 {
		t.Fatalf("third call recomputed instead of hitting the cache: tap 0 = %g", h3[0])
	}
}

func TestRIRCacheReturnsDefensiveCopy(t *testing.T) {
	clearRIRCache()
	defer clearRIRCache()

	room := DefaultRoom()
	src := Point{1, 1, 1.5}
	dst := Point{3, 2, 1.2}

	h1, err := room.ImpulseResponse(src, dst, 8000)
	if err != nil {
		t.Fatal(err)
	}
	want := h1[0]
	h1[0] = 12345 // caller scribbles on its slice

	h2, err := room.ImpulseResponse(src, dst, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if h2[0] != want {
		t.Fatalf("cache entry corrupted by caller mutation: got %g want %g", h2[0], want)
	}
}

func TestRIRCacheDistinguishesGeometry(t *testing.T) {
	clearRIRCache()
	defer clearRIRCache()

	room := DefaultRoom()
	if _, err := room.ImpulseResponse(Point{1, 1, 1.5}, Point{3, 2, 1.2}, 8000); err != nil {
		t.Fatal(err)
	}
	// Different destination, different rate, different room: all misses.
	if _, err := room.ImpulseResponse(Point{1, 1, 1.5}, Point{3, 2, 1.3}, 8000); err != nil {
		t.Fatal(err)
	}
	if _, err := room.ImpulseResponse(Point{1, 1, 1.5}, Point{3, 2, 1.2}, 16000); err != nil {
		t.Fatal(err)
	}
	other := room
	other.Absorption = 0.5
	if _, err := other.ImpulseResponse(Point{1, 1, 1.5}, Point{3, 2, 1.2}, 8000); err != nil {
		t.Fatal(err)
	}
	if n := rirCacheLen(); n != 4 {
		t.Fatalf("want 4 cached responses, got %d", n)
	}
}

func TestRIRCacheConcurrentAccess(t *testing.T) {
	clearRIRCache()
	defer clearRIRCache()

	room := DefaultRoom()
	points := []Point{
		{1, 1, 1.5}, {2, 1, 1.5}, {3, 2, 1.2}, {4, 3, 1.0},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				src := points[(w+i)%len(points)]
				dst := points[(w+i+1)%len(points)]
				if _, err := room.ImpulseResponse(src, dst, 8000); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
