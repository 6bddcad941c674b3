package sim

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mute/internal/audio"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files")

// goldenTolerance bounds the per-value drift the golden diff accepts. The
// pipeline is deterministic for a fixed seed, so on one platform the match
// is exact; the tolerance absorbs cross-platform floating-point wiggle
// (fused multiply-add, libm differences) without letting behavior changes
// through.
const (
	goldenRelTol = 1e-6
	goldenAbsTol = 1e-9
)

// goldenRun produces the traced reference run of one scenario. One second
// of white noise through the default Figure 1 scene is enough to cover
// convergence, and keeps the goldens reviewable (~100 lines of JSONL).
func goldenRun(t *testing.T, lt *LossTransport) (*telemetry.Trace, *Result) {
	t.Helper()
	tr := telemetry.NewTrace()
	p := DefaultParams(DefaultScene(audio.NewWhiteNoise(1, 8000, 0.5)))
	p.Duration = 1
	p.Seed = 1
	p.Trace = tr
	p.LossTransport = lt
	res, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// burstTransport is the 10% Gilbert–Elliott burst-loss scenario: 5 ms
// frames, one frame of playout priming (the default scene's ~70-sample
// lookahead covers it), FEC on, concealment-aware adaptation.
func burstTransport() *LossTransport {
	return &LossTransport{
		Link:         stream.LossParams{Seed: 42, Loss: 0.10, MeanBurst: 4},
		FrameSamples: 40,
		PrimeFrames:  1,
		FECGroup:     4,
		LossAware:    true,
	}
}

// diffTraces compares a recorded trace against a golden one: event count,
// order, timestamps, stages, names, and value keys must match exactly;
// values match within tolerance.
func diffTraces(t *testing.T, got, want []telemetry.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace has %d events, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.T != w.T || g.Stage != w.Stage || g.Name != w.Name {
			t.Fatalf("event %d is (t=%d %s/%s), golden has (t=%d %s/%s)",
				i, g.T, g.Stage, g.Name, w.T, w.Stage, w.Name)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("event %d (%s/%s) has %d values, golden has %d",
				i, g.Stage, g.Name, len(g.Values), len(w.Values))
		}
		for k, wv := range w.Values {
			gv, ok := g.Values[k]
			if !ok {
				t.Fatalf("event %d (%s/%s) lost value %q", i, g.Stage, g.Name, k)
			}
			if diff := math.Abs(gv - wv); diff > goldenAbsTol && diff > goldenRelTol*math.Abs(wv) {
				t.Errorf("event %d (t=%d %s/%s) %s = %v, golden %v",
					i, g.T, g.Stage, g.Name, k, gv, wv)
			}
		}
	}
}

// checkGolden diffs a trace against testdata/<name>.jsonl, rewriting the
// golden under -update.
func checkGolden(t *testing.T, name string, tr *telemetry.Trace) {
	t.Helper()
	path := filepath.Join("testdata", name+".jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", path, tr.Len())
		return
	}
	want, err := readTrace(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	diffTraces(t, tr.Events(), want)
}

// readTrace parses a JSONL trace file written by Trace.WriteFile.
func readTrace(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []telemetry.Event
	dec := json.NewDecoder(f)
	for {
		var ev telemetry.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// checkBudgetInvariant enforces the accounting identity on the traced
// budget: the per-stage lookahead entries sum to the scene's lookahead
// within one sample period.
func checkBudgetInvariant(t *testing.T, tr *telemetry.Trace, res *Result) {
	t.Helper()
	var sum float64
	var entries int
	for _, ev := range tr.Events() {
		if ev.Stage != telemetry.StageBudget {
			continue
		}
		entries++
		sum += ev.Values["samples"]
	}
	if entries == 0 {
		t.Fatal("no budget entries in trace")
	}
	if d := sum - float64(res.LookaheadSamples); d < -1 || d > 1 {
		t.Errorf("budget entries sum to %g, lookahead is %d", sum, res.LookaheadSamples)
	}
	if res.BudgetSpend == nil {
		t.Fatal("Result.BudgetSpend missing")
	}
	if d := res.BudgetSpend.SpentSamples() - res.BudgetSpend.LookaheadSamples; d < -1 || d > 1 {
		t.Errorf("Result.BudgetSpend unbalanced: spent %d of %d",
			res.BudgetSpend.SpentSamples(), res.BudgetSpend.LookaheadSamples)
	}
}

// TestGoldenTraceClean is the clean-link golden: the full stage trace of a
// one-second MUTE_Hollow run over the ideal reference wire.
func TestGoldenTraceClean(t *testing.T) {
	tr, res := goldenRun(t, nil)
	checkBudgetInvariant(t, tr, res)
	checkGolden(t, "golden_clean", tr)
}

// TestGoldenTraceBurst is the lossy golden: the same run with the reference
// packetized over a 10% burst-loss link with FEC and loss-aware adaptation.
// The stream/lookahead stages join the trace here.
func TestGoldenTraceBurst(t *testing.T) {
	tr, res := goldenRun(t, burstTransport())
	checkBudgetInvariant(t, tr, res)
	stages := map[string]bool{}
	for _, ev := range tr.Events() {
		stages[ev.Stage] = true
	}
	for _, want := range []string{
		telemetry.StageCapture, telemetry.StageLink, telemetry.StageStream,
		telemetry.StageLookahead, telemetry.StageLANC, telemetry.StageResidual,
		telemetry.StageBudget,
	} {
		if !stages[want] {
			t.Errorf("stage %q missing from burst trace", want)
		}
	}
	checkGolden(t, "golden_burst", tr)
}
