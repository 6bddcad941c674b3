package experiments

import (
	"reflect"
	"testing"

	"mute/internal/telemetry"
)

// figuresEqual compares two figures value by value (DeepEqual covers the
// float slices bit for bit — the acceptance bar is bit-identical, not
// approximately equal).
func figuresEqual(a, b *Figure) bool {
	return reflect.DeepEqual(a, b)
}

// TestTelemetryResultNeutral is the acceptance test for observability:
// attaching a telemetry registry must not change a single bit of the loss
// and fig12 sweep results, at Workers=1 and Workers=8.
func TestTelemetryResultNeutral(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(Config) (*Figure, error)
		cfg  Config
	}{
		{"loss", LossSweep, Config{Duration: 1.5, Seed: 7}},
		{"fig12", Fig12, Config{Duration: 1.5, Seed: 7, Bands: 8}},
	}
	for _, sw := range sweeps {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			baseCfg := sw.cfg
			baseCfg.Workers = 1
			base, err := sw.run(baseCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				cfg := sw.cfg
				cfg.Workers = workers
				cfg.Telemetry = telemetry.NewRegistry()
				fig, err := sw.run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !figuresEqual(fig, base) {
					t.Errorf("workers=%d: enabling telemetry changed the %s results", workers, sw.name)
				}
				if len(cfg.Telemetry.Snapshot().Counters) == 0 {
					t.Errorf("workers=%d: registry stayed empty — the sweep is not instrumented", workers)
				}
			}
		})
	}
}

// TestTelemetryMergeDeterministicAcrossWorkers runs the loss sweep at 1, 2,
// and 8 workers and requires the aggregated registry (timers stripped —
// they carry wall clock) to be identical: children merge in task order, so
// the worker count must not show through.
func TestTelemetryMergeDeterministicAcrossWorkers(t *testing.T) {
	snapshotAt := func(workers int) telemetry.Snapshot {
		reg := telemetry.NewRegistry()
		if _, err := LossSweep(Config{Duration: 1, Seed: 3, Workers: workers, Telemetry: reg}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := reg.Snapshot()
		snap.Timers = nil // wall clock
		return snap
	}
	want := snapshotAt(1)
	for _, workers := range []int{2, 8} {
		got := snapshotAt(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: aggregated telemetry differs from sequential:\ngot  %s\nwant %s",
				workers, got.Text(), want.Text())
		}
	}
}

// TestTraceResultNeutral: attaching a trace to a figure run must not change
// its results either (the trace only observes the sample streams).
func TestTraceResultNeutral(t *testing.T) {
	cfg := Config{Duration: 1.5, Seed: 7, Bands: 8, Workers: 1}
	base, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := cfg
	traced.Trace = telemetry.NewTrace()
	fig, err := Fig12(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !figuresEqual(fig, base) {
		t.Error("enabling the trace changed the fig12 results")
	}
	if traced.Trace.Len() == 0 {
		t.Error("trace stayed empty — the runs are not traced")
	}
}
