// Package profile implements sound-profile recognition for LANC's
// predictive filter switching (Section 3.2(2) of the paper). A profile is a
// statistical signature of the dominant sound source — here the normalized
// energy distribution across frequency bands plus an overall level — and
// the classifier matches incoming windows against cached profiles so that
// converged adaptive-filter weights can be reloaded instead of re-learned.
package profile

import (
	"fmt"
	"math"

	"mute/internal/dsp"
)

// Signature is a sound-profile fingerprint: band energy fractions plus the
// total level. Two signatures from the same source type are close in
// Euclidean distance; speech vs. background noise differ strongly.
type Signature struct {
	// Bands holds the fraction of power in each frequency band
	// (sums to 1 for non-silent windows).
	Bands []float64
	// Level is the total window power (linear).
	Level float64
	// Silent marks windows whose power is below the silence floor.
	Silent bool
}

// SilenceFloor is the power level below which a window counts as silent.
const SilenceFloor = 1e-7

// Compute derives a signature from a sample window. nBands bands spanning
// [0, sampleRate/2] are used; 8 is plenty to separate speech, music, hum
// and wide-band noise at 8 kHz.
func Compute(window []float64, sampleRate float64, nBands int) (Signature, error) {
	if len(window) == 0 {
		return Signature{}, dsp.ErrEmptyInput
	}
	if nBands <= 0 {
		return Signature{}, fmt.Errorf("profile: nBands must be positive, got %d", nBands)
	}
	level := dsp.Power(window)
	sig := Signature{Bands: make([]float64, nBands), Level: level}
	if level < SilenceFloor {
		sig.Silent = true
		return sig, nil
	}
	psd, err := dsp.WelchPSD(window, sampleRate, len(window))
	if err != nil {
		return Signature{}, err
	}
	bands := psd.BandEnergies(nBands, sampleRate/2)
	var total float64
	for _, b := range bands {
		total += b
	}
	if total > 0 {
		for i := range bands {
			bands[i] /= total
		}
	}
	copy(sig.Bands, bands)
	return sig, nil
}

// Distance returns the dissimilarity of two signatures: the Euclidean
// distance between band distributions plus a bounded level term (a tenth
// of the |log10| power ratio, capped at 1), so that a loud talker starting
// over quiet background registers as a new profile even when the spectral
// tilt is similar. The silent flag dominates (silent vs. non-silent is
// maximally distant).
func Distance(a, b Signature) float64 {
	if a.Silent != b.Silent {
		return math.Inf(1)
	}
	if a.Silent && b.Silent {
		return 0
	}
	n := len(a.Bands)
	if len(b.Bands) < n {
		n = len(b.Bands)
	}
	var d float64
	for i := 0; i < n; i++ {
		diff := a.Bands[i] - b.Bands[i]
		d += diff * diff
	}
	level := math.Abs(math.Log10((a.Level+SilenceFloor)/(b.Level+SilenceFloor))) * 0.1
	if level > 1 {
		level = 1
	}
	return math.Sqrt(d) + level
}

// Classifier assigns windows to profile slots, creating new slots when a
// window matches nothing known. Slot 0 is reserved for silence.
type Classifier struct {
	// Threshold is the maximum signature distance to match an existing
	// profile.
	Threshold float64
	// MaxProfiles caps the number of tracked profiles (silence included).
	MaxProfiles int

	protos []Signature // prototype signature per profile slot
}

// NewClassifier creates a classifier with the given matching threshold.
func NewClassifier(threshold float64, maxProfiles int) (*Classifier, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("profile: threshold must be positive, got %g", threshold)
	}
	if maxProfiles < 2 {
		return nil, fmt.Errorf("profile: need at least 2 profile slots, got %d", maxProfiles)
	}
	c := &Classifier{Threshold: threshold, MaxProfiles: maxProfiles}
	c.protos = append(c.protos, Signature{Silent: true}) // slot 0: silence
	return c, nil
}

// Classify matches sig to a profile slot, registering a new slot if
// nothing matches and capacity remains. The second return value is true
// when a new profile was created.
func (c *Classifier) Classify(sig Signature) (int, bool) {
	if sig.Silent {
		return 0, false
	}
	best, bestDist := -1, math.Inf(1)
	for i := 1; i < len(c.protos); i++ {
		if d := Distance(sig, c.protos[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best >= 0 && bestDist <= c.Threshold {
		// Slowly adapt the prototype toward the observation so it tracks
		// drifting sources.
		p := &c.protos[best]
		for k := range p.Bands {
			if k < len(sig.Bands) {
				p.Bands[k] = 0.95*p.Bands[k] + 0.05*sig.Bands[k]
			}
		}
		p.Level = 0.95*p.Level + 0.05*sig.Level
		return best, false
	}
	if len(c.protos) < c.MaxProfiles {
		cp := Signature{Bands: append([]float64(nil), sig.Bands...), Level: sig.Level}
		c.protos = append(c.protos, cp)
		return len(c.protos) - 1, true
	}
	// Capacity exhausted: return the nearest even though it is far.
	if best < 0 {
		best = 0
	}
	return best, false
}

// Reset forgets every learned profile, keeping only the reserved silence
// slot. It restores the classifier to its freshly constructed state without
// re-validating the configuration, so callers can reset infallibly.
func (c *Classifier) Reset() {
	c.protos = c.protos[:1]
}

// FilterCache stores converged adaptive-filter weights per profile slot so
// LANC can swap them in at transitions instead of re-converging.
type FilterCache struct {
	weights map[int][]float64
}

// NewFilterCache creates an empty cache.
func NewFilterCache() *FilterCache {
	return &FilterCache{weights: make(map[int][]float64)}
}

// Store saves a copy of w for profile id.
func (fc *FilterCache) Store(id int, w []float64) {
	cp := make([]float64, len(w))
	copy(cp, w)
	fc.weights[id] = cp
}

// Load returns a copy of the cached weights for id, or nil if absent.
func (fc *FilterCache) Load(id int) []float64 {
	w, ok := fc.weights[id]
	if !ok {
		return nil
	}
	cp := make([]float64, len(w))
	copy(cp, w)
	return cp
}

// Len returns the number of cached filters.
func (fc *FilterCache) Len() int { return len(fc.weights) }
