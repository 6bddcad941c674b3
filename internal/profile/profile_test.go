package profile

import (
	"math"
	"testing"
	"testing/quick"

	"mute/internal/audio"
)

const fs = 8000.0

func sigOf(t *testing.T, g audio.Generator, n int) Signature {
	t.Helper()
	sig, err := Compute(audio.Render(g, n), fs, 8)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil, fs, 8); err == nil {
		t.Error("empty window should error")
	}
	if _, err := Compute([]float64{1}, fs, 0); err == nil {
		t.Error("zero bands should error")
	}
}

func TestSilenceDetection(t *testing.T) {
	sig, err := Compute(make([]float64, 256), fs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Silent {
		t.Error("zero window should be silent")
	}
	loud := sigOf(t, audio.NewWhiteNoise(1, fs, 0.5), 256)
	if loud.Silent {
		t.Error("noise window should not be silent")
	}
}

func TestSignatureBandsNormalized(t *testing.T) {
	sig := sigOf(t, audio.NewWhiteNoise(2, fs, 0.5), 512)
	var sum float64
	for _, b := range sig.Bands {
		if b < 0 {
			t.Errorf("negative band fraction %g", b)
		}
		sum += b
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("band fractions sum to %g, want 1", sum)
	}
}

func TestSignatureSeparatesSources(t *testing.T) {
	toneA := sigOf(t, audio.NewTone(300, fs, 0.5, 0), 512)
	toneA2 := sigOf(t, audio.NewTone(320, fs, 0.4, 1), 512)
	toneHigh := sigOf(t, audio.NewTone(3000, fs, 0.5, 0), 512)
	noise := sigOf(t, audio.NewWhiteNoise(3, fs, 0.5), 512)
	// Same-band tones are close; different sources are far.
	if Distance(toneA, toneA2) > 0.2 {
		t.Errorf("similar tones distance %g, want < 0.2", Distance(toneA, toneA2))
	}
	if Distance(toneA, toneHigh) < 0.5 {
		t.Errorf("low vs high tone distance %g, want > 0.5", Distance(toneA, toneHigh))
	}
	if Distance(toneA, noise) < 0.3 {
		t.Errorf("tone vs noise distance %g, want > 0.3", Distance(toneA, noise))
	}
}

func TestDistanceSilent(t *testing.T) {
	s := Signature{Silent: true}
	n := Signature{Bands: []float64{1, 0}}
	if !math.IsInf(Distance(s, n), 1) {
		t.Error("silent vs non-silent should be infinitely distant")
	}
	if Distance(s, Signature{Silent: true}) != 0 {
		t.Error("silent vs silent should be 0")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := Signature{Bands: audio.Render(audio.NewWhiteNoise(seed, fs, 0.5), 8)}
		b := Signature{Bands: audio.Render(audio.NewWhiteNoise(seed+1, fs, 0.5), 8)}
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClassifierAssignsStableIDs(t *testing.T) {
	c, err := NewClassifier(0.35, 8)
	if err != nil {
		t.Fatal(err)
	}
	tone := sigOf(t, audio.NewTone(300, fs, 0.5, 0), 512)
	noise := sigOf(t, audio.NewWhiteNoise(4, fs, 0.5), 512)
	id1, isNew1 := c.Classify(tone)
	if !isNew1 || id1 == 0 {
		t.Errorf("first tone: id=%d new=%v", id1, isNew1)
	}
	id2, isNew2 := c.Classify(noise)
	if !isNew2 || id2 == id1 {
		t.Errorf("noise should get a new slot: id=%d new=%v", id2, isNew2)
	}
	// Re-presenting the tone matches the original slot.
	tone2 := sigOf(t, audio.NewTone(310, fs, 0.45, 2), 512)
	id3, isNew3 := c.Classify(tone2)
	if isNew3 || id3 != id1 {
		t.Errorf("similar tone should match slot %d, got %d (new=%v)", id1, id3, isNew3)
	}
	// Silence always maps to 0.
	if id, _ := c.Classify(Signature{Silent: true}); id != 0 {
		t.Errorf("silence should map to slot 0, got %d", id)
	}
	if len(c.protos) != 3 {
		t.Errorf("profiles = %d, want 3 (silence + 2)", len(c.protos))
	}
}

func TestClassifierCapacity(t *testing.T) {
	c, err := NewClassifier(0.01, 3) // tiny threshold forces new slots
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{200, 900, 1800, 2700, 3500}
	for _, f := range freqs {
		c.Classify(sigOf(t, audio.NewTone(f, fs, 0.5, 0), 512))
	}
	if len(c.protos) > 3 {
		t.Errorf("profiles = %d, should be capped at 3", len(c.protos))
	}
}

func TestClassifierErrors(t *testing.T) {
	if _, err := NewClassifier(0, 8); err == nil {
		t.Error("zero threshold should error")
	}
	if _, err := NewClassifier(0.3, 1); err == nil {
		t.Error("single slot should error")
	}
}

func TestFilterCache(t *testing.T) {
	fc := NewFilterCache()
	if fc.Load(1) != nil || fc.Len() != 0 {
		t.Error("fresh cache should be empty")
	}
	w := []float64{1, 2, 3}
	fc.Store(1, w)
	w[0] = 99 // the cache must have copied
	got := fc.Load(1)
	if got == nil || got[0] != 1 {
		t.Errorf("cache should store a copy, got %v", got)
	}
	got[1] = 99 // and return a copy
	if fc.Load(1)[1] != 2 {
		t.Error("cache should return a copy")
	}
	if fc.Load(7) != nil {
		t.Error("missing id should return nil")
	}
	if fc.Load(1) == nil || fc.Len() != 1 {
		t.Error("cache accounting wrong")
	}
}
