package fleet

import (
	"math"
	"testing"
)

// runLossySession serves the target session alone over the target's lossy
// link for blocks ticks and returns its residual.
func runLossySession(t *testing.T, p Profile, blocks int) []float64 {
	t.Helper()
	srv := NewServer(Config{Shards: 1})
	defer srv.Close()
	residual := make([]float64, blocks*p.FrameSamples)
	if _, err := srv.Open(targetID, p, WithResidual(residual)); err != nil {
		t.Fatal(err)
	}
	u := newSimUser(t, targetID, p.FrameSamples, targetFaults())
	for b := 0; b < blocks; b++ {
		for _, d := range u.tick() {
			srv.Ingest(d)
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
	}
	return residual
}

// TestFDAFSessionIsLossBlind: the block canceller has no concealment
// gate, so an FDAF session opens loss-blind whatever Profile.LossBlind
// says and serves bit-identical residuals either way. The same lossy link
// does change a sample-domain session's residual, so the comparison is
// not vacuous.
func TestFDAFSessionIsLossBlind(t *testing.T) {
	const blocks = 24
	run := func(fdaf int, lossBlind bool) []float64 {
		p := lightProfile()
		p.FDAFBlock = fdaf
		p.LossBlind = lossBlind
		return runLossySession(t, p, blocks)
	}
	aware, blind := run(16, false), run(16, true)
	for i := range aware {
		if math.Float64bits(aware[i]) != math.Float64bits(blind[i]) {
			t.Fatalf("FDAF residual depends on LossBlind at sample %d: %g != %g", i, aware[i], blind[i])
		}
	}
	tdAware, tdBlind := run(0, false), run(0, true)
	differ := false
	for i := range tdAware {
		if tdAware[i] != tdBlind[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("LossBlind left a sample-domain session unchanged: the link delivered no concealment")
	}
}
