package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// decodeJSONL parses a trace written by WriteJSONL, one event per line.
func decodeJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// TestTraceRoundTrip: write → read preserves every event, and the JSONL
// form is deterministic (encoding/json sorts the value keys).
func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.Record(0, StageBudget, "transport.prime", map[string]float64{"samples": 40, "ms": 5})
	tr.Record(512, StageLANC, "step", map[string]float64{"mu_eff": 0.1, "tap_energy": 0.25})
	tr.Record(1024, StageResidual, "ear", map[string]float64{"power_db": -31.4})

	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two serializations of the same trace differ")
	}

	got, err := decodeJSONL(&a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events()) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, tr.Events())
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, err := decodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, tr.Events()) {
		t.Error("file round trip mismatch")
	}
}

// TestTraceClampsNonFinite: NaN/Inf must never reach the JSONL (they are
// not valid JSON numbers and would poison the golden diff).
func TestTraceClampsNonFinite(t *testing.T) {
	tr := NewTrace()
	tr.Record(0, StageResidual, "bad", map[string]float64{
		"nan":     math.NaN(),
		"posinf":  math.Inf(1),
		"neginf":  math.Inf(-1),
		"regular": 2.5,
	})
	ev := tr.Events()[0]
	if ev.Values["nan"] != 0 {
		t.Errorf("NaN clamped to %g, want 0", ev.Values["nan"])
	}
	if ev.Values["posinf"] != math.MaxFloat64 {
		t.Errorf("+Inf clamped to %g", ev.Values["posinf"])
	}
	if ev.Values["neginf"] != -math.MaxFloat64 {
		t.Errorf("-Inf clamped to %g", ev.Values["neginf"])
	}
	if ev.Values["regular"] != 2.5 {
		t.Errorf("finite value disturbed: %g", ev.Values["regular"])
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("clamped trace failed to serialize: %v", err)
	}
}

// TestBudgetReportInvariant: the report always accounts for the lookahead.
func TestBudgetReportInvariant(t *testing.T) {
	b := NewBudgetReport(8000, 70)
	b.Add("transport.prime", 40)
	b.Add("pipeline.adc", 1)
	b.Add("lanc.noncausal_taps", 25)
	b.Add("unused", 4)
	if b.SpentSamples() != b.LookaheadSamples {
		t.Errorf("spent %d of %d: not balanced", b.SpentSamples(), b.LookaheadSamples)
	}
	if ms := b.Ms(40); ms != 5 {
		t.Errorf("40 samples at 8 kHz = %g ms, want 5", ms)
	}
	txt := b.Text()
	for _, want := range []string{"lookahead budget: 70 samples", "transport.prime", "accounted 70/70"} {
		if !strings.Contains(txt, want) {
			t.Errorf("budget text missing %q:\n%s", want, txt)
		}
	}

	tr := NewTrace()
	b.Record(tr)
	var sum float64
	for _, ev := range tr.Events() {
		if ev.Stage == StageBudget {
			sum += ev.Values["samples"]
		}
	}
	if sum != 70 {
		t.Errorf("traced budget entries sum to %g, want 70", sum)
	}
}

// TestPublishExpvar: publishing is idempotent (no duplicate-name panic) and
// the exposed string is a valid JSON snapshot that follows the registry.
func TestPublishExpvar(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("a").Add(7)
	PublishExpvar("telemetry_test_reg", r1)
	r2 := NewRegistry()
	r2.Counter("a").Add(9)
	PublishExpvar("telemetry_test_reg", r2) // must swap, not panic

	h := newExpvarHandle(r2)
	var snap Snapshot
	if err := json.Unmarshal([]byte(h.String()), &snap); err != nil {
		t.Fatalf("expvar string is not JSON: %v", err)
	}
	if snap.Counters["a"] != 9 {
		t.Errorf("expvar snapshot counter = %d, want 9", snap.Counters["a"])
	}
}
