package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// checkFilterIntoSplits streams x through a Process-only reference and
// through a convolver driven in the given block splits — a split of 0
// means one Process call, a negative split -n means ProcessBlockInto over
// n samples (capped below the overlap-save threshold, the one inexact
// path), a positive one FilterInto over that many — and reports the first
// output or ring state that differs.
//
// Process itself is first held to the rolled convolution sum, taps in
// order from h[0], with zeros before the stream starts.
func checkFilterIntoSplits(h, x []float64, splits []int) error {
	ref := NewStreamConvolver(h)
	want := make([]float64, len(x))
	for i, v := range x {
		want[i] = ref.Process(v)
		var rolled float64
		for j := range h {
			var xv float64
			if i-j >= 0 {
				xv = x[i-j]
			}
			rolled += h[j] * xv
		}
		if !sameBits(want[i], rolled) {
			return fmt.Errorf("Process output %d: got %v (%#x), rolled sum %v (%#x)", i,
				want[i], math.Float64bits(want[i]), rolled, math.Float64bits(rolled))
		}
	}
	got := make([]float64, len(x))
	sc := NewStreamConvolver(h)
	for i, k := 0, 0; i < len(x); k++ {
		n := 1
		if len(splits) > 0 {
			n = splits[k%len(splits)]
		}
		switch {
		case n == 0:
			got[i] = sc.Process(x[i])
			i++
		case n < 0:
			n = min(-n, len(x)-i)
			if len(h) >= olsMinKernel {
				n = min(n, 2*len(h)-1)
			}
			sc.ProcessBlockInto(got[i:i+n], x[i:i+n])
			i += n
		default:
			n = min(n, len(x)-i)
			sc.FilterInto(got[i:i+n], x[i:i+n])
			i += n
		}
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("output %d: got %v (%#x), want %v (%#x)", i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if sc.pos != ref.pos {
		return fmt.Errorf("ring cursor %d, want %d", sc.pos, ref.pos)
	}
	for i := range ref.hist {
		if !sameBits(sc.hist[i], ref.hist[i]) {
			return fmt.Errorf("ring slot %d: got %v, want %v", i, sc.hist[i], ref.hist[i])
		}
	}
	return nil
}

// TestFilterIntoMatchesProcessBits holds FilterInto to Process bit for bit
// over kernel lengths on both sides of the unroll width and of the
// overlap-save threshold (FilterInto must never take that path), block
// lengths on both sides of the kernel length, and streams that interleave
// Process, FilterInto and ProcessBlockInto calls.
func TestFilterIntoMatchesProcessBits(t *testing.T) {
	rnd := lcg(20)
	for _, m := range []int{0, 1, 2, 3, 4, 5, 11, 73, 101, 130} {
		h := make([]float64, m)
		for i := range h {
			h[i] = rnd()
		}
		x := make([]float64, 1500)
		for i := range x {
			x[i] = rnd()
		}
		for _, b := range []int{1, 3, 4, 7, 8, 16, 80, 512} {
			if err := checkFilterIntoSplits(h, x, []int{b}); err != nil {
				t.Errorf("m=%d block=%d: %v", m, b, err)
			}
			// Interleaved: a block, single Process calls (leaving the ring
			// cursor mid-way), then the block path, which takes
			// FilterInto below the overlap-save threshold.
			if err := checkFilterIntoSplits(h, x, []int{b, 0, 0, 0, -b, b + 1, 0, -2 * b}); err != nil {
				t.Errorf("m=%d block=%d interleaved: %v", m, b, err)
			}
		}
	}
}

// TestFilterIntoAfterResetMatchesProcess checks that FilterInto reads a
// cleared ring as zeros, like Process after Reset.
func TestFilterIntoAfterResetMatchesProcess(t *testing.T) {
	rnd := lcg(21)
	h := make([]float64, 37)
	for i := range h {
		h[i] = rnd()
	}
	x := make([]float64, 200)
	for i := range x {
		x[i] = rnd()
	}
	sc := NewStreamConvolver(h)
	scratch := make([]float64, 50)
	sc.FilterInto(scratch, x[:50])
	sc.Reset()
	got := make([]float64, len(x))
	sc.FilterInto(got, x)
	ref := NewStreamConvolver(h)
	for i, v := range x {
		if w := ref.Process(v); !sameBits(got[i], w) {
			t.Fatalf("output %d after Reset: got %v, want %v", i, got[i], w)
		}
	}
}

// TestStreamConvolverFilterIntoAllocatesNothing pins FilterInto's steady
// state, including kernels at the overlap-save threshold and blocks
// shorter than the kernel.
func TestStreamConvolverFilterIntoAllocatesNothing(t *testing.T) {
	for _, m := range []int{5, 101, 300} {
		sc := NewStreamConvolver(make([]float64, m))
		for _, b := range []int{7, 80, 512} {
			x := make([]float64, b)
			out := make([]float64, b)
			for i := range x {
				x[i] = float64(i%13) - 6
			}
			if n := testing.AllocsPerRun(20, func() { sc.FilterInto(out, x) }); n != 0 {
				t.Errorf("m=%d block=%d: FilterInto allocated %.1f times per run", m, b, n)
			}
		}
	}
}

// FuzzStreamConvolverFilterInto checks FilterInto against Process on
// arbitrary kernels, block splits and sample bits — signed zeros,
// subnormals, infinities and extremes included; a NaN output matches only
// a NaN.
func FuzzStreamConvolverFilterInto(f *testing.F) {
	f.Add(uint8(0), []byte{}, []byte{})
	f.Add(uint8(4), []byte{4, 0, 3}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	f.Add(uint8(101), []byte{80, 1, 7}, binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(5e-324)), math.Float64bits(-2.5)))
	f.Add(uint8(130), []byte{255, 3}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300)))
	f.Add(uint8(9), []byte{2}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1))))
	// The demo ear's secondary path (3 taps), the shortest kernel and one
	// with several 4-wide steps and a tail, on plain sample values.
	ear := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.85))
	ear = binary.LittleEndian.AppendUint64(ear, math.Float64bits(0.22))
	ear = binary.LittleEndian.AppendUint64(ear, math.Float64bits(-0.06))
	ear = binary.LittleEndian.AppendUint64(ear, math.Float64bits(1.0/3))
	f.Add(uint8(3), []byte{0, 7, 0}, ear)
	f.Add(uint8(1), []byte{0, 5}, ear)
	f.Add(uint8(40), []byte{0, 9, 0, 0, 4}, ear)
	f.Fuzz(func(t *testing.T, m uint8, splits []byte, data []byte) {
		words := len(data) / 8
		next := 0
		gen := func() float64 {
			if words == 0 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(next%words):]))
			next++
			return v
		}
		h := make([]float64, int(m)%160)
		for i := range h {
			h[i] = gen()
		}
		x := make([]float64, 600)
		for i := range x {
			x[i] = gen()
		}
		// Split bytes: 0 = one Process call, odd = FilterInto over b/2+1,
		// even = ProcessBlockInto over b/2.
		var plan []int
		for _, b := range splits {
			switch {
			case b == 0:
				plan = append(plan, 0)
			case b%2 == 1:
				plan = append(plan, int(b)/2+1)
			default:
				plan = append(plan, -int(b)/2)
			}
		}
		if err := checkFilterIntoSplits(h, x, plan); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkStreamConvolverFilterInto times FilterInto next to the
// per-sample Process loop it replaces, in ns/sample, over the kernel
// lengths the cancellers run (the headphone's band-limited ĥ_eff is 101
// taps) and the simulator's and fleet's block sizes.
func BenchmarkStreamConvolverFilterInto(b *testing.B) {
	for _, m := range []int{3, 11, 73, 101} {
		for _, n := range []int{80, 512} {
			h := randFloats(m, 3)
			x := randFloats(n, 4)
			out := make([]float64, n)
			b.Run(fmt.Sprintf("m=%d/block=%d/process", m, n), func(b *testing.B) {
				sc := NewStreamConvolver(h)
				for i := 0; i < b.N; i++ {
					for k, v := range x {
						out[k] = sc.Process(v)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
			})
			b.Run(fmt.Sprintf("m=%d/block=%d/filterinto", m, n), func(b *testing.B) {
				sc := NewStreamConvolver(h)
				for i := 0; i < b.N; i++ {
					sc.FilterInto(out, x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
			})
		}
	}
}
