package acoustics

import (
	"fmt"
	"math"

	"mute/internal/dsp"
)

// Room is a rectangular ("shoebox") room with frequency-independent wall
// absorption. Impulse responses between points inside the room are computed
// with the image-source method, which produces the non-minimum-phase
// multipath channels whose inversion motivates LANC's non-causal taps.
type Room struct {
	// Size is the room dimensions in meters (width, depth, height).
	Size Point
	// Absorption is the wall energy absorption coefficient in (0, 1];
	// reflections lose this fraction of energy per bounce. 1 means
	// anechoic (no reflections survive).
	Absorption float64
	// MaxOrder caps the image-source reflection order. Higher orders give
	// longer reverberant tails at cubic cost. 0 selects the default (6).
	MaxOrder int
}

// DefaultRoom returns the office-like room used throughout the evaluation:
// 5 m × 4 m × 3 m with the absorption of a furnished office (carpet,
// ceiling tiles, soft furniture), where early reflections dominate the
// reverberant tail.
func DefaultRoom() Room {
	return Room{Size: Point{5, 4, 3}, Absorption: 0.8, MaxOrder: 6}
}

// Validate checks geometric and physical sanity.
func (r Room) Validate() error {
	if r.Size.X <= 0 || r.Size.Y <= 0 || r.Size.Z <= 0 {
		return fmt.Errorf("acoustics: non-positive room dimensions %v", r.Size)
	}
	if r.Absorption <= 0 || r.Absorption > 1 {
		return fmt.Errorf("acoustics: absorption %g outside (0, 1]", r.Absorption)
	}
	if r.MaxOrder < 0 {
		return fmt.Errorf("acoustics: negative reflection order %d", r.MaxOrder)
	}
	return nil
}

// Inside reports whether p lies strictly inside the room.
func (r Room) Inside(p Point) bool {
	return p.X > 0 && p.X < r.Size.X &&
		p.Y > 0 && p.Y < r.Size.Y &&
		p.Z > 0 && p.Z < r.Size.Z
}

// ImpulseResponse computes the room impulse response from src to dst at
// the given sample rate using the image-source method. The returned FIR
// taps are normalized so the direct path has the spherical-spreading gain
// relative to refDist = 1 m. The response includes fractional-delay
// interpolation so sub-sample path-length differences are preserved.
//
// Results are memoized process-wide (see rircache.go): the image-source
// enumeration is O(order³) and every scheme in an experiment figure asks
// for the same handful of geometries, so repeat calls return a copy of the
// cached taps. The cache is safe for concurrent use.
func (r Room) ImpulseResponse(src, dst Point, sampleRate float64) ([]float64, error) {
	return cachedImpulseResponse(r, src, dst, sampleRate)
}

// computeImpulseResponse is the uncached image-source computation backing
// ImpulseResponse.
func (r Room) computeImpulseResponse(src, dst Point, sampleRate float64) ([]float64, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("acoustics: sample rate %g must be positive", sampleRate)
	}
	if !r.Inside(src) {
		return nil, fmt.Errorf("acoustics: source %v outside room %v", src, r.Size)
	}
	if !r.Inside(dst) {
		return nil, fmt.Errorf("acoustics: destination %v outside room %v", dst, r.Size)
	}
	order := r.MaxOrder
	if order == 0 && r.Absorption < 1 {
		order = 6
	}
	reflFactor := math.Sqrt(1 - r.Absorption) // pressure reflection coefficient

	type arrival struct {
		delay float64 // samples
		gain  float64
	}
	var arrivals []arrival
	maxDelay := 0.0
	// Image sources: the image position along each axis is
	// 2*n*L + src (even parity, |2n| bounces) or 2*n*L - src (odd parity,
	// |2n-1| bounces). We enumerate n in [-order, order] and both parities.
	imagePos := func(n, p int, l, s float64) (pos float64, bounces int) {
		if p == 0 {
			return float64(2*n)*l + s, abs(2 * n)
		}
		return float64(2*n)*l - s, abs(2*n - 1)
	}
	for nx := -order; nx <= order; nx++ {
		for px := 0; px <= 1; px++ {
			ix, reflX := imagePos(nx, px, r.Size.X, src.X)
			for ny := -order; ny <= order; ny++ {
				for py := 0; py <= 1; py++ {
					iy, reflY := imagePos(ny, py, r.Size.Y, src.Y)
					for nz := -order; nz <= order; nz++ {
						for pz := 0; pz <= 1; pz++ {
							iz, reflZ := imagePos(nz, pz, r.Size.Z, src.Z)
							bounces := reflX + reflY + reflZ
							if bounces > order {
								continue
							}
							img := Point{ix, iy, iz}
							d := img.Dist(dst)
							gain := Attenuation(d, 1) * math.Pow(reflFactor, float64(bounces))
							if gain < 1e-5 {
								continue
							}
							delay := AcousticDelay(d) * sampleRate
							arrivals = append(arrivals, arrival{delay: delay, gain: gain})
							if delay > maxDelay {
								maxDelay = delay
							}
						}
					}
				}
			}
		}
	}
	// Build the FIR by summing fractional-delay kernels.
	length := int(maxDelay) + 8
	h := make([]float64, length)
	for _, a := range arrivals {
		taps, err := dsp.FractionalDelayFIR(a.delay)
		if err != nil {
			return nil, err
		}
		for i, v := range taps {
			if i < len(h) {
				h[i] += a.gain * v
			}
		}
	}
	return h, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// DirectDelaySamples returns the direct-path delay between two points in
// (fractional) samples at the given rate.
func DirectDelaySamples(a, b Point, sampleRate float64) float64 {
	return AcousticDelay(a.Dist(b)) * sampleRate
}
