package mesh

import (
	"testing"
	"time"

	"mute/internal/acoustics"
	"mute/internal/audio"
)

// bigMesh builds a 200-relay supervisor with distinct positions and
// leads, pushed past warm-up into steady state.
func bigMesh(tb testing.TB, relays int) (*Supervisor, []float64, []float64, []bool, []int, int64) {
	tb.Helper()
	cfg := Config{
		Capacity:      relays,
		EarPos:        acoustics.Point{X: 8, Y: 8},
		WindowSamples: 1024,
		MaxLagSamples: 64,
	}
	sup, err := NewSupervisor(cfg, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	leads := make([]int, relays)
	for i := 0; i < relays; i++ {
		x := float64(i%15) + 0.6
		y := float64(i/15) + 0.6
		if _, err := sup.Join(int64(i)+1000, acoustics.Point{X: x, Y: y}); err != nil {
			tb.Fatal(err)
		}
		leads[i] = 1 + i%48
	}
	const steady = 4096
	gen := audio.NewWhiteNoise(5, 8000, 0.4)
	clean := make([]float64, steady+1<<17+64)
	for i := range clean {
		clean[i] = gen.Next()
	}
	fwd := make([]float64, relays)
	real := make([]bool, relays)
	var now int64
	push := func() {
		for s := 0; s < relays; s++ {
			fwd[s] = clean[now+int64(leads[s])]
			real[s] = true
		}
		if _, _, err := sup.Push(clean[now], fwd, real); err != nil {
			tb.Fatal(err)
		}
		now++
	}
	for i := 0; i < steady; i++ {
		push()
	}
	return sup, clean, fwd, real, leads, now
}

// TestMeshSteadyStateAllocFree pins the tentpole's allocation contract: a
// 200-relay mesh in steady state — per-sample ring writes, liveness
// updates, and full selection rounds included — allocates nothing.
func TestMeshSteadyStateAllocFree(t *testing.T) {
	const relays = 200
	sup, clean, fwd, real, leads, now := bigMesh(t, relays)
	span := sup.cfg.WindowSamples // ≥ 2 selection rounds per run
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < span; i++ {
			for s := 0; s < relays; s++ {
				fwd[s] = clean[now+int64(leads[s])]
				real[s] = true
			}
			if _, _, err := sup.Push(clean[now], fwd, real); err != nil {
				t.Fatal(err)
			}
			now++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state mesh allocates %.1f objects per %d-sample span, want 0", allocs, span)
	}
	if sup.Report().Rounds == 0 {
		t.Fatal("no selection rounds ran during the measured span")
	}
}

// realTimeBudgetUnits is TestMeshRealTimeBudget's bound: one second of
// 200-relay audio may take at most this many times the reference
// kernel's time for the same span. Measured on a 2-vCPU host, the mesh
// took 1.6–2.3 kernels without the race detector (kernel 25–31 ms, so
// the effective budget is 300–380 ms, under the 500 ms wall-clock budget
// this replaces) and 2.3–3.4 kernels under -race, which slows the mesh
// about 10× and the kernel about 7×.
const realTimeBudgetUnits = 12

// refMember is the reference kernel's stand-in for a mesh member: a
// doubled ring and the link-health counters.
type refMember struct {
	ring             []float64
	concealed, clean int
	ewma             float64
}

// observe is a member's per-sample update — ring write, run counters,
// EWMA — kept out of line like the mesh's own, so the race detector's
// per-call and per-access costs land on the kernel as they land on Push.
//
//go:noinline
func (m *refMember) observe(cursor, window int, x float64) {
	m.ring[cursor] = x
	m.ring[cursor+window] = x
	m.concealed = 0
	m.clean++
	m.ewma -= m.ewma / 64
}

// referenceKernel times a fixed workload with a mesh Push's memory-access
// shape and none of its logic: per sample, every relay's forwarded value
// goes through its member's observe, and every 128 samples eight windows
// are summed. The best of three runs is returned.
func referenceKernel(relays, span, window int, clean []float64, leads []int) time.Duration {
	ms := make([]refMember, relays)
	for i := range ms {
		ms[i].ring = make([]float64, 2*window)
	}
	best := time.Duration(1<<63 - 1)
	var acc float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		cursor := 0
		for i := 0; i < span; i++ {
			for s := range ms {
				ms[s].observe(cursor, window, clean[i+leads[s]])
			}
			if cursor++; cursor == window {
				cursor = 0
			}
			if i%128 == 0 {
				for s := 0; s < 8; s++ {
					for _, v := range ms[s].ring[cursor : cursor+window] {
						acc += v * v
					}
				}
			}
		}
		best = min(best, time.Since(start))
	}
	if acc < 0 {
		panic("negative energy")
	}
	return best
}

// TestMeshRealTimeBudget pins that a 200-relay mesh keeps up with the
// sample clock by a wide margin: pushing one second of audio (8000
// samples at 8 kHz), selection rounds included, must take at most
// realTimeBudgetUnits reference kernels. Timing against a kernel run in
// the same binary keeps the bound about the mesh, not about the host's
// load or the race detector's instrumentation.
func TestMeshRealTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock budget test")
	}
	const relays = 200
	sup, clean, fwd, real, leads, now := bigMesh(t, relays)
	const span = 8000
	kernel := referenceKernel(relays, span, sup.cfg.WindowSamples, clean, leads)
	start := time.Now()
	for i := 0; i < span; i++ {
		for s := 0; s < relays; s++ {
			fwd[s] = clean[now+int64(leads[s])]
			real[s] = true
		}
		if _, _, err := sup.Push(clean[now], fwd, real); err != nil {
			t.Fatal(err)
		}
		now++
	}
	elapsed := time.Since(start)
	units := float64(elapsed) / float64(kernel)
	t.Logf("200-relay mesh: %v for 1 s of audio = %.2f reference kernels (%v each)", elapsed, units, kernel)
	if units > realTimeBudgetUnits {
		t.Fatalf("200-relay mesh took %v for 1 s of audio, %.1f reference kernels of %v, over the %d-kernel budget (not real-time capable)",
			elapsed, units, kernel, realTimeBudgetUnits)
	}
}

// BenchmarkMeshPush200 measures the steady-state per-sample cost of a
// 200-relay mesh, selection rounds amortized in.
func BenchmarkMeshPush200(b *testing.B) {
	const relays = 200
	sup, clean, fwd, real, leads, now := bigMesh(b, relays)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := now + int64(i%(1<<16))
		for s := 0; s < relays; s++ {
			fwd[s] = clean[idx+int64(leads[s])]
			real[s] = true
		}
		if _, _, err := sup.Push(clean[idx], fwd, real); err != nil {
			b.Fatal(err)
		}
	}
}
