// Package telemetry is the pipeline observability layer: a dependency-free
// (stdlib-only), allocation-conscious metrics registry plus a per-stage
// trace recorder keyed to the sample clock.
//
// MUTE's whole premise is a latency budget — the RF-forwarded reference
// must beat the acoustic wavefront by enough milliseconds to absorb the
// DSP/DAC pipeline and feed the non-causal LANC taps — and this package
// makes that budget visible at runtime: where the lookahead goes stage by
// stage (BudgetReport), how the transport is treating frames (counters),
// how the canceller is adapting (gauges, histograms), and how long each
// stage takes in wall-clock terms (timers).
//
// Two rules shape the design:
//
//   - Result neutrality: instrumentation only ever *reads* pipeline state.
//     Enabling a registry or a trace must not change a single output bit of
//     any experiment (enforced by tests in internal/experiments).
//
//   - Determinism under the worker pool: concurrent experiment runs each
//     write to their own per-run Registry, and the parent merges the
//     children in task order (Registry.Merge), so the aggregate is
//     identical for any worker count. Only Timers carry wall-clock values
//     and are therefore excluded from determinism comparisons.
//
// Hot-path operations (Counter.Add, Gauge.Set, Histogram.Observe,
// Timer.Observe) are allocation-free; tests pin this with
// testing.AllocsPerRun.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer series (e.g. frames lost).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Allocation-free.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value float series (e.g. lookahead samples, tap energy).
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set records the current value. Allocation-free.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the last set value (0 if never set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer aggregates wall-clock stage durations into a log-spaced histogram
// of seconds. Timer values are inherently non-deterministic; they are kept
// as a distinct kind so determinism tests can skip them.
type Timer struct {
	h Histogram
}

// Observe records one duration. Allocation-free.
func (t *Timer) Observe(d time.Duration) { t.h.Observe(d.Seconds()) }

// Since records the time elapsed from start, returning the duration.
func (t *Timer) Since(start time.Time) time.Duration {
	d := time.Since(start)
	t.Observe(d)
	return d
}

// Registry holds named metrics. Lookups are get-or-create and safe for
// concurrent use; the returned metric pointers are stable, so hot loops
// resolve a name once and update through the pointer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// layout on first use. The first registration fixes the layout; later
// calls return the existing histogram regardless of the options passed.
func (r *Registry) Histogram(name string, opts HistogramOpts) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram(opts)
	r.hists[name] = h
	return h
}

// Timer returns the named timer, creating it on first use. Timers span
// 1 µs to ~17 s with 2× buckets.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.timers[name]; ok {
		return t
	}
	t = &Timer{h: *NewHistogram(HistogramOpts{Lo: 1e-6, Ratio: 2, Buckets: 24})}
	r.timers[name] = t
	return t
}

// Merge folds a child registry into r: counters and histogram buckets add,
// a gauge the child has set overwrites the parent's value, timers add.
// Experiment runners merge per-run child registries in task order, which
// makes the aggregate deterministic for any worker count.
func (r *Registry) Merge(child *Registry) {
	if child == nil {
		return
	}
	child.mu.RLock()
	defer child.mu.RUnlock()
	for name, c := range child.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range child.gauges {
		if g.set.Load() {
			r.Gauge(name).Set(g.Value())
		}
	}
	for name, h := range child.hists {
		r.Histogram(name, h.opts).merge(h)
	}
	for name, t := range child.timers {
		r.Timer(name).h.merge(&t.h)
	}
}

// Snapshot is a point-in-time copy of a registry, ordered and JSON-ready.
// Timers are kept apart from histograms because their values are wall
// clock (non-deterministic); everything else is deterministic for a fixed
// seed and merge order.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers     map[string]HistogramSnapshot `json:"timers,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Timers:     make(map[string]HistogramSnapshot, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, t := range r.timers {
		s.Timers[name] = t.h.Snapshot()
	}
	return s
}

// Text renders the snapshot as an aligned, name-sorted report.
func (s Snapshot) Text() string {
	var b []byte
	section := func(title string) { b = append(b, fmt.Sprintf("%s:\n", title)...) }
	if len(s.Counters) > 0 {
		section("counters")
		for _, name := range sortedKeys(s.Counters) {
			b = append(b, fmt.Sprintf("  %-40s %d\n", name, s.Counters[name])...)
		}
	}
	if len(s.Gauges) > 0 {
		section("gauges")
		for _, name := range sortedKeys(s.Gauges) {
			b = append(b, fmt.Sprintf("  %-40s %g\n", name, s.Gauges[name])...)
		}
	}
	if len(s.Histograms) > 0 {
		section("histograms")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			b = append(b, fmt.Sprintf("  %-40s n=%d sum=%g p50=%g p99=%g\n",
				name, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.99))...)
		}
	}
	if len(s.Timers) > 0 {
		section("timers")
		for _, name := range sortedKeys(s.Timers) {
			h := s.Timers[name]
			b = append(b, fmt.Sprintf("  %-40s n=%d total=%.3gs p50=%.3gs p99=%.3gs\n",
				name, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.99))...)
		}
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
