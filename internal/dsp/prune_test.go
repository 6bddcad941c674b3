package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The pruned real transforms promise bit-identity with the full ones: a
// ForwardHead/ForwardTail spectrum equals Forward's on the explicit
// zero-padded window, and an InverseHead/InverseTail half equals that
// half of Inverse's output. These tests compare math.Float64bits, so a
// flipped zero sign or a last-ulp difference fails.

// pruneInputKinds generates the sample (or spectrum component) patterns the
// bit-identity pins run over.
var pruneInputKinds = []struct {
	name string
	gen  func(rng *rand.Rand) float64
}{
	{"random", func(rng *rand.Rand) float64 { return rng.NormFloat64() }},
	{"zero", func(*rand.Rand) float64 { return 0 }},
	{"negative-zero", func(*rand.Rand) float64 { return math.Copysign(0, -1) }},
	{"signed-zero", func(rng *rand.Rand) float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 1.5
		}
		return -0.75
	}},
	{"subnormal", func(rng *rand.Rand) float64 {
		v := math.Float64frombits(uint64(rng.Int63n(1 << 52))) // exponent 0: subnormal or zero
		if rng.Intn(2) == 0 {
			v = -v
		}
		if rng.Intn(8) == 0 {
			v = rng.NormFloat64()
		}
		return v
	}},
}

func fillReal(x []float64, gen func() float64) {
	for i := range x {
		x[i] = gen()
	}
}

func fillSpectrum(s []complex128, gen func() float64) {
	for i := range s {
		re := gen()
		s[i] = complex(re, gen())
	}
}

// sameBits reports whether a and b are bit-identical, treating any two
// NaNs as equal (operand order of a commutative op may pick either NaN's
// payload).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameComplexBits(a, b complex128) bool {
	return sameBits(real(a), real(b)) && sameBits(imag(a), imag(b))
}

// checkPruned compares all four pruned entry points of the n-point plan
// against the full transforms on the live half x (len n/2) and the half
// spectrum s (len n/2+1), reporting the first mismatch.
func checkPruned(n int, x []float64, s []complex128) error {
	p := PlanRFFT(n)
	h := n / 2
	win := make([]float64, n)
	want := make([]complex128, p.Bins())
	got := make([]complex128, p.Bins())
	for _, tail := range []bool{false, true} {
		for i := range win {
			win[i] = 0
		}
		// Garbage in dst: the pruned forward must not read slots of the
		// implied zero half.
		for k := range got {
			got[k] = complex(math.NaN(), math.NaN())
		}
		if tail {
			copy(win[h:], x)
			p.ForwardTail(got, x)
		} else {
			copy(win, x)
			p.ForwardHead(got, x)
		}
		p.Forward(want, win)
		for k := range want {
			if !sameComplexBits(got[k], want[k]) {
				return fmt.Errorf("n=%d forward tail=%v bin %d: pruned %v, full %v", n, tail, k, got[k], want[k])
			}
		}
	}
	full := make([]float64, n)
	p.Inverse(full, append([]complex128(nil), s...))
	part := make([]float64, h)
	for _, tail := range []bool{false, true} {
		wantHalf := full[:h]
		if tail {
			wantHalf = full[h:]
			p.InverseTail(part, append([]complex128(nil), s...))
		} else {
			p.InverseHead(part, append([]complex128(nil), s...))
		}
		for i := range part {
			if !sameBits(part[i], wantHalf[i]) {
				return fmt.Errorf("n=%d inverse tail=%v sample %d: pruned %v, full %v", n, tail, i, part[i], wantHalf[i])
			}
		}
	}
	return nil
}

func TestRFFTPrunedBitIdenticalToFull(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 2; n <= 1024; n <<= 1 {
		for _, kind := range pruneInputKinds {
			trials := 20
			if kind.name == "zero" || kind.name == "negative-zero" {
				trials = 1
			}
			gen := func() float64 { return kind.gen(rng) }
			for trial := 0; trial < trials; trial++ {
				x := make([]float64, n/2)
				s := make([]complex128, n/2+1)
				fillReal(x, gen)
				fillSpectrum(s, gen)
				if err := checkPruned(n, x, s); err != nil {
					t.Fatalf("%s trial %d: %v", kind.name, trial, err)
				}
			}
		}
	}
}

// TestRFFTPrunedSignedZeroPatterns enumerates every pattern of signed
// zeros and ones on the live half (and every signed-zero half spectrum) at
// the small sizes, where a zero's sign survives to the output most often:
// a pruned butterfly that shortcuts 0+v to v, or u+0 to u, shows up here.
func TestRFFTPrunedSignedZeroPatterns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	realAlphabet := []float64{0, negZero, 1}
	specAlphabet := []float64{0, negZero}
	for _, n := range []int{2, 4, 8, 16} {
		h := n / 2
		x := make([]float64, h)
		s := make([]complex128, h+1)
		// The spectrum has 2(h+1) components; enumerate them at n <= 8 and
		// reuse the pattern index cyclically above that.
		specPatterns := 1 << (2 * (h + 1))
		if specPatterns > 1<<10 {
			specPatterns = 1 << 10
		}
		total := 1
		for range x {
			total *= len(realAlphabet)
		}
		if specPatterns > total {
			total = specPatterns
		}
		for idx := 0; idx < total; idx++ {
			c := idx
			for i := range x {
				x[i] = realAlphabet[c%len(realAlphabet)]
				c /= len(realAlphabet)
			}
			c = idx % specPatterns
			for k := range s {
				s[k] = complex(specAlphabet[c&1], specAlphabet[(c>>1)&1])
				c >>= 2
			}
			if err := checkPruned(n, x, s); err != nil {
				t.Fatalf("pattern %d: %v", idx, err)
			}
		}
	}
}

// TestRFFTPrunedPanicsOnBadLengths pins the length contracts: the pruned
// forwards take n/2 samples, the pruned inverses write n/2.
func TestRFFTPrunedPanicsOnBadLengths(t *testing.T) {
	p := PlanRFFT(16)
	spec := make([]complex128, p.Bins())
	for name, call := range map[string]func(){
		"ForwardHead full window": func() { p.ForwardHead(spec, make([]float64, 16)) },
		"ForwardTail short":       func() { p.ForwardTail(spec, make([]float64, 4)) },
		"InverseHead full window": func() { p.InverseHead(make([]float64, 16), spec) },
		"InverseTail short spec":  func() { p.InverseTail(make([]float64, 8), spec[:8]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzRFFTPruned pins the pruned transforms to the full ones, bit for bit,
// on arbitrary sample bits: data is read as little-endian float64s (cycled
// to fill the window and the spectrum; non-finite values become zero, so
// signed zeros, subnormals and extreme magnitudes all reach the kernel).
func FuzzRFFTPruned(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	f.Add(uint8(4), binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, 1), math.Float64bits(-2.5)))
	f.Add(uint8(9), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300)))
	f.Fuzz(func(t *testing.T, logN uint8, data []byte) {
		n := 2 << (logN % 10) // 2..1024
		words := len(data) / 8
		next := 0
		gen := func() float64 {
			if words == 0 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(next%words):]))
			next++
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		x := make([]float64, n/2)
		s := make([]complex128, n/2+1)
		fillReal(x, gen)
		fillSpectrum(s, gen)
		if err := checkPruned(n, x, s); err != nil {
			t.Fatal(err)
		}
	})
}
