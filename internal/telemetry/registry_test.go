package telemetry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// simulateRun writes a deterministic workload into a registry, keyed by the
// task index — a stand-in for one experiment run.
func simulateRun(r *Registry, task int) {
	r.Counter("runs").Inc()
	r.Counter("samples").Add(int64(1000 * (task + 1)))
	r.Gauge("last_task").Set(float64(task))
	h := r.Histogram("residual", HistogramOpts{Lo: 1e-3, Ratio: 2, Buckets: 16})
	for i := 0; i < 10; i++ {
		h.Observe(float64(task+1) * 1e-3 * float64(i+1))
	}
	r.Timer("stage").Observe(time.Duration(task+1) * time.Millisecond)
}

// TestMergeDeterministicAcrossWorkers runs the same 12-task workload under
// 1, 2, and 8 workers, each task in its own child registry, merged in task
// order — the runner discipline — and requires the deterministic part of
// the aggregate to be identical, byte for byte, across worker counts.
func TestMergeDeterministicAcrossWorkers(t *testing.T) {
	const tasks = 12
	aggregate := func(workers int) Snapshot {
		parent := NewRegistry()
		kids := make([]*Registry, tasks)
		for i := range kids {
			kids[i] = NewRegistry()
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := 0; i < tasks; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				simulateRun(kids[i], i)
			}(i)
		}
		wg.Wait()
		for _, kid := range kids {
			parent.Merge(kid)
		}
		// The wall-clock timers are the part that may differ.
		snap := parent.Snapshot()
		snap.Timers = nil
		return snap
	}

	want := aggregate(1)
	wantText := want.Text()
	for _, workers := range []int{2, 8} {
		got := aggregate(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: deterministic snapshot differs from sequential", workers)
		}
		if got.Text() != wantText {
			t.Errorf("workers=%d: text rendering differs from sequential", workers)
		}
	}
}

// TestMergeUnderConcurrentChildWrites is the fleet fan-in pattern: every
// session owns a child registry its serving goroutine writes continuously,
// and a scraper merges snapshots of all children while they are hot. The
// mid-flight merges must be race-free (Merge holds the child's read lock;
// metric updates are atomic), and once the writers quiesce, a final merge
// in session-id order must equal the sequential aggregate exactly.
func TestMergeUnderConcurrentChildWrites(t *testing.T) {
	const sessions, rounds = 8, 200
	kids := make([]*Registry, sessions)
	for i := range kids {
		kids[i] = NewRegistry()
	}
	var wg sync.WaitGroup
	for i := range kids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := kids[i].Counter("fleet.session.frames_in")
			h := kids[i].Histogram("residual", DefaultHistogramOpts())
			for r := 0; r < rounds; r++ {
				c.Inc()
				kids[i].Gauge("fleet.session.buffered").Set(float64(r))
				h.Observe(float64(i+1) * 1e-3)
			}
		}(i)
	}
	// Scrape while the writers are hot: values are torn-free but
	// unasserted — this pass exists for the race detector.
	for s := 0; s < 20; s++ {
		hot := NewRegistry()
		for _, kid := range kids {
			hot.Merge(kid)
		}
	}
	wg.Wait()

	final := NewRegistry()
	for _, kid := range kids { // ascending session order — the fleet contract
		final.Merge(kid)
	}
	if got := final.Counter("fleet.session.frames_in").Value(); got != sessions*rounds {
		t.Errorf("fan-in lost counter increments: %d, want %d", got, sessions*rounds)
	}
	if got := final.Histogram("residual", DefaultHistogramOpts()).Snapshot().Count; got != sessions*rounds {
		t.Errorf("fan-in lost histogram observations: %d, want %d", got, sessions*rounds)
	}
	// The last-merged child's gauge wins — that is what "deterministic
	// order" buys: the aggregate is a pure function of the merge sequence.
	if got := final.Gauge("fleet.session.buffered").Value(); got != rounds-1 {
		t.Errorf("gauge after ordered fan-in = %g, want %d", got, rounds-1)
	}
}

// TestMergeSemantics: counters add, set gauges overwrite (unset ones do
// not), histograms add, nil children are no-ops.
func TestMergeSemantics(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("c").Add(5)
	parent.Gauge("kept").Set(1)
	parent.Gauge("overwritten").Set(1)

	child := NewRegistry()
	child.Counter("c").Add(3)
	child.Gauge("overwritten").Set(2)
	child.Gauge("unset") // created but never Set
	parent.Merge(child)
	parent.Merge(nil)

	if got := parent.Counter("c").Value(); got != 8 {
		t.Errorf("counter merged to %d, want 8", got)
	}
	if got := parent.Gauge("kept").Value(); got != 1 {
		t.Errorf("untouched gauge became %g, want 1", got)
	}
	if got := parent.Gauge("overwritten").Value(); got != 2 {
		t.Errorf("set child gauge merged to %g, want 2", got)
	}
	if got := parent.Gauge("unset").Value(); got != 0 {
		t.Errorf("never-set child gauge leaked %g into the parent", got)
	}
}

// TestRegistryStablePointers: get-or-create returns the same metric for the
// same name, and the first histogram registration fixes the layout.
func TestRegistryStablePointers(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter pointer not stable")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge pointer not stable")
	}
	if r.Timer("x") != r.Timer("x") {
		t.Error("Timer pointer not stable")
	}
	a := r.Histogram("h", HistogramOpts{Lo: 1, Ratio: 2, Buckets: 4})
	b := r.Histogram("h", HistogramOpts{Lo: 99, Ratio: 3, Buckets: 7})
	if a != b {
		t.Error("Histogram pointer not stable across differing opts")
	}
	if got := len(b.Edges()); got != 5 {
		t.Errorf("later opts changed the layout: %d edges, want 5", got)
	}
}

// TestHotPathAllocationFree pins the zero-allocation fast path of every
// hot-loop operation: resolve the metric once, then update through the
// pointer without allocating.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DefaultHistogramOpts())
	tm := r.Timer("t")
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Gauge.Set", func() { g.Set(3.14) }},
		{"Histogram.Observe", func() { h.Observe(0.5) }},
		{"Timer.Observe", func() { tm.Observe(time.Millisecond) }},
		{"Registry.Counter_lookup", func() { r.Counter("c").Inc() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per op, want 0", tc.name, allocs)
		}
	}
}

// TestRegistryConcurrentGetOrCreate hammers get-or-create from many
// goroutines; the race detector plus the stable-pointer check make the
// double-checked locking visible.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter(fmt.Sprintf("c%d", j%7)).Inc()
				r.Gauge("g").Set(1)
				r.Histogram("h", DefaultHistogramOpts()).Observe(1)
			}
		}()
	}
	wg.Wait()
	var total int64
	for j := 0; j < 7; j++ {
		total += r.Counter(fmt.Sprintf("c%d", j)).Value()
	}
	if total != 16*100 {
		t.Errorf("lost counter increments: %d, want %d", total, 16*100)
	}
	if got := r.Histogram("h", DefaultHistogramOpts()).Snapshot().Count; got != 16*100 {
		t.Errorf("lost histogram observations: %d, want %d", got, 16*100)
	}
}

// TestSnapshotIsCopy: mutating the registry after Snapshot must not change
// the snapshot.
func TestSnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Histogram("h", DefaultHistogramOpts()).Observe(1)
	s := r.Snapshot()
	r.Counter("c").Add(10)
	r.Histogram("h", DefaultHistogramOpts()).Observe(2)
	if s.Counters["c"] != 1 {
		t.Errorf("snapshot counter moved to %d", s.Counters["c"])
	}
	if s.Histograms["h"].Count != 1 {
		t.Errorf("snapshot histogram moved to %d", s.Histograms["h"].Count)
	}
}
