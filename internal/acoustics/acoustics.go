// Package acoustics models sound propagation for the MUTE reproduction:
// 3-D geometry, point-source spherical spreading, propagation delay at the
// speed of sound, and multipath room impulse responses computed with the
// image-source method for rectangular rooms.
//
// The paper's core quantity — lookahead — is the difference between the
// acoustic travel time from the noise source to the ear and the (near-zero)
// RF forwarding time from the relay (Equation 4). This package computes it
// from geometry.
package acoustics

import (
	"fmt"
	"math"
)

// SpeedOfSound is the propagation speed of sound in air in m/s, matching
// the value the paper uses (≈340 m/s).
const SpeedOfSound = 340.0

// SpeedOfLight is the RF propagation speed in m/s.
const SpeedOfLight = 299792458.0

// Point is a position in 3-D space, in meters.
type Point struct {
	X, Y, Z float64
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 {
	d := p.Sub(q)
	return math.Sqrt(d.X*d.X + d.Y*d.Y + d.Z*d.Z)
}

// String renders the point as "(x, y, z)".
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f, %.2f)", p.X, p.Y, p.Z) }

// AcousticDelay returns the travel time of sound over distance d meters.
func AcousticDelay(d float64) float64 { return d / SpeedOfSound }

// RFDelay returns the travel time of an RF signal over distance d meters.
func RFDelay(d float64) float64 { return d / SpeedOfLight }

// Lookahead computes the lookahead time (Equation 4 of the paper) for a
// noise source heard at the ear device with the reference microphone at the
// relay: T = (d_e - d_r)/v, where d_e is source→ear distance and d_r is
// source→relay distance. The RF forwarding delay is subtracted; it is
// negligible (sub-microsecond) at room scale but included for completeness.
// A negative result means the relay hears the sound *after* the ear device
// and forwarding is useless (Section 4.2).
func Lookahead(source, relay, ear Point) float64 {
	dr := source.Dist(relay)
	de := source.Dist(ear)
	rf := relay.Dist(ear)
	return AcousticDelay(de) - AcousticDelay(dr) - RFDelay(rf)
}

// Attenuation returns the spherical-spreading pressure attenuation for a
// point source at distance d meters, normalized so that distance refDist
// has gain 1. Distances below 10 cm are clamped to avoid the singularity.
func Attenuation(d, refDist float64) float64 {
	const minDist = 0.1
	if d < minDist {
		d = minDist
	}
	if refDist < minDist {
		refDist = minDist
	}
	return refDist / d
}
