package bench

import (
	"strings"
	"testing"
	"time"
)

// TestCoreSuiteRuns executes the whole core suite with a tiny timing target
// — every kernel must set up, run, and report a positive measurement.
func TestCoreSuiteRuns(t *testing.T) {
	old := measureTarget
	measureTarget = 2 * time.Millisecond
	defer func() { measureTarget = old }()

	rep, err := Run("core")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Suite != "core" {
		t.Fatalf("bad header: %+v", rep)
	}
	want := []string{
		"calibrate", "fft.roundtrip.1024", "fft.rfft.1024",
		"convolver.block.57x4096", "convolver.ols.256x4096",
		"lanc.step", "blocklanc.block.32", "gccphat.correlate.1024",
		"fft.rfft.32", "blocklanc.block.16",
	}
	if len(rep.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(rep.Entries), len(want))
	}
	for i, name := range want {
		e := rep.Entries[i]
		if e.Name != name {
			t.Errorf("entry %d: name %q, want %q", i, e.Name, name)
		}
		if e.Value <= 0 || e.Iters <= 0 {
			t.Errorf("entry %q: non-positive measurement %+v", name, e)
		}
		if e.Unit != "ns/op" {
			t.Errorf("entry %q: unit %q", name, e.Unit)
		}
	}
}

// TestFleetSuiteRuns executes the fleet capacity suite at toy scale — the
// throughput and paced measurements must both complete and report the
// expected entries, with only the CPU-time quantities in gated units.
func TestFleetSuiteRuns(t *testing.T) {
	oldTarget := measureTarget
	oldS, oldB := fleetSessions, fleetBlocks
	oldPS, oldPD, oldR := fleetPacedSessions, fleetPacedDuration, fleetRounds
	measureTarget = 2 * time.Millisecond
	fleetSessions, fleetBlocks = 4, 8
	fleetPacedSessions, fleetPacedDuration, fleetRounds = 4, 100*time.Millisecond, 1
	defer func() {
		measureTarget = oldTarget
		fleetSessions, fleetBlocks = oldS, oldB
		fleetPacedSessions, fleetPacedDuration, fleetRounds = oldPS, oldPD, oldR
	}()

	rep, err := Run("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "fleet" {
		t.Fatalf("bad header: %+v", rep)
	}
	want := map[string]string{
		"calibrate":               "ns/op",
		"fleet.session_block":     "ns/op",
		"fleet.sessions_per_core": "x",
		"fleet.paced500.miss":     "%",
		"fleet.paced500.p99_late": "ms*",
	}
	if len(rep.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(rep.Entries), len(want))
	}
	for _, e := range rep.Entries {
		unit, ok := want[e.Name]
		if !ok {
			t.Errorf("unexpected entry %q", e.Name)
			continue
		}
		if e.Unit != unit {
			t.Errorf("entry %q: unit %q, want %q", e.Name, e.Unit, unit)
		}
		if e.Value < 0 {
			t.Errorf("entry %q: negative measurement %+v", e.Name, e)
		}
		if e.Name == "fleet.session_block" && e.Value <= 0 {
			t.Errorf("session-block cost must be positive: %+v", e)
		}
	}
}

func report(entries ...Entry) *Report {
	return &Report{Schema: Schema, Suite: "core", Entries: entries}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := report(
		Entry{Name: "calibrate", Value: 100, Unit: "ns/op"},
		Entry{Name: "kernel", Value: 1000, Unit: "ns/op"},
		Entry{Name: "run.rtf", Value: 80, Unit: "x"},
	)

	// Identical report: clean.
	if probs := Compare(base, base, 0.2); len(probs) != 0 {
		t.Fatalf("self-compare flagged: %v", probs)
	}

	// 50% slower kernel, same calibration: flagged.
	cur := report(
		Entry{Name: "calibrate", Value: 100, Unit: "ns/op"},
		Entry{Name: "kernel", Value: 1500, Unit: "ns/op"},
		Entry{Name: "run.rtf", Value: 80, Unit: "x"},
	)
	probs := Compare(cur, base, 0.2)
	if len(probs) != 1 || !strings.Contains(probs[0], "kernel") {
		t.Fatalf("want one kernel regression, got %v", probs)
	}

	// Realtime factor halved: flagged.
	cur = report(
		Entry{Name: "calibrate", Value: 100, Unit: "ns/op"},
		Entry{Name: "kernel", Value: 1000, Unit: "ns/op"},
		Entry{Name: "run.rtf", Value: 40, Unit: "x"},
	)
	probs = Compare(cur, base, 0.2)
	if len(probs) != 1 || !strings.Contains(probs[0], "run.rtf") {
		t.Fatalf("want one rtf regression, got %v", probs)
	}
}

// TestCompareCalibration checks that a uniformly slower host does not trip
// the gate: everything 2x slower, including the calibration workload, is
// the same machine-independent performance.
func TestCompareCalibration(t *testing.T) {
	base := report(
		Entry{Name: "calibrate", Value: 100, Unit: "ns/op"},
		Entry{Name: "kernel", Value: 1000, Unit: "ns/op"},
		Entry{Name: "run.rtf", Value: 80, Unit: "x"},
	)
	slowHost := report(
		Entry{Name: "calibrate", Value: 200, Unit: "ns/op"},
		Entry{Name: "kernel", Value: 2000, Unit: "ns/op"},
		Entry{Name: "run.rtf", Value: 40, Unit: "x"},
	)
	if probs := Compare(slowHost, base, 0.2); len(probs) != 0 {
		t.Fatalf("calibrated slow host flagged: %v", probs)
	}
	// But a kernel that is disproportionately slow on the slow host still trips.
	slowHost.Entries[1].Value = 3000
	if probs := Compare(slowHost, base, 0.2); len(probs) != 1 {
		t.Fatalf("want one regression on slow host, got %v", probs)
	}
}

func TestCompareMissingEntry(t *testing.T) {
	base := report(
		Entry{Name: "calibrate", Value: 100, Unit: "ns/op"},
		Entry{Name: "kernel", Value: 1000, Unit: "ns/op"},
	)
	cur := report(Entry{Name: "calibrate", Value: 100, Unit: "ns/op"})
	probs := Compare(cur, base, 0.2)
	if len(probs) != 1 || !strings.Contains(probs[0], "missing") {
		t.Fatalf("want missing-entry problem, got %v", probs)
	}
}
