// Package dsp provides the signal-processing substrate used throughout the
// MUTE reproduction: FFTs, convolution, FIR filter design, windows, delay
// lines, power-spectral-density estimation, and decibel utilities.
//
// All routines operate on float64 sample slices normalized to roughly
// [-1, 1]. Sample rates are passed explicitly where they matter; nothing in
// this package holds global state, and every function is safe for concurrent
// use on distinct data.
package dsp

import (
	"errors"
	"math"
)

// ErrEmptyInput is returned by routines that require at least one sample.
var ErrEmptyInput = errors.New("dsp: empty input")

// EpsilonPower is the floor used when converting powers to decibels so that
// silent signals map to a large negative dB value instead of -Inf.
const EpsilonPower = 1e-20

// DB converts a linear power ratio to decibels.
func DB(powerRatio float64) float64 {
	if powerRatio < EpsilonPower {
		powerRatio = EpsilonPower
	}
	return 10 * math.Log10(powerRatio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// Energy returns the sum of squared samples.
func Energy(x []float64) float64 {
	var e float64
	for _, v := range x {
		e += v * v
	}
	return e
}

// Power returns the mean squared sample value, or 0 for empty input.
func Power(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Scale multiplies every sample by g in place and returns x.
func Scale(x []float64, g float64) []float64 {
	for i := range x {
		x[i] *= g
	}
	return x
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
