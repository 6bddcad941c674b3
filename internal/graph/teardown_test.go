package graph

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// closerSource wraps SliceSource with a Close that records invocation —
// the shape of a fleet session buffer that must hand frames back to a
// pool on teardown.
type closerSource struct {
	SliceSource
	closed int
	err    error
}

func (c *closerSource) Close() error {
	c.closed++
	return c.err
}

type closerAmbient struct {
	SliceAmbient
	closed int
}

func (c *closerAmbient) Close() error {
	c.closed++
	return nil
}

// TestPipelineCloseReleasesStages pins the teardown contract: Close
// reaches every bound stage that implements io.Closer, releases the block
// scratch (and the FDAF kind's view of it), is idempotent, and reports the
// first stage error while still closing the rest.
func TestPipelineCloseReleasesStages(t *testing.T) {
	for _, fdaf := range []*FDAFParams{nil, {BlockSize: 16}} {
		cfg := validConfig(512)
		cfg.FDAF = fdaf
		src := &closerSource{SliceSource: SliceSource{Samples: make([]float64, 512)}}
		amb := &closerAmbient{SliceAmbient: SliceAmbient{
			Local: make([]float64, 512), Cup: make([]float64, 512),
		}}
		cfg.Reference = src
		cfg.Ambient = amb
		pl, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := 120
		if fdaf != nil {
			want = 128 // rounded up to whole blocks
		}
		if got, err := pl.ProcessBlock(120); err != nil || got != want {
			t.Fatalf("ProcessBlock(120) = %d, %v; want %d", got, err, want)
		}
		k, isFDAF := pl.canc.(*fdafKind)
		if pl.refs[0].x == nil || isFDAF && k.xs == nil {
			t.Fatal("scratch not grown before Close — test is vacuous")
		}
		if err := pl.Close(); err != nil {
			t.Fatal(err)
		}
		if src.closed != 1 || amb.closed != 1 {
			t.Fatalf("closed source %d times, ambient %d times; want 1 and 1", src.closed, amb.closed)
		}
		if pl.refs[0].x != nil || pl.refs[0].m != nil || isFDAF && k.xs != nil {
			t.Fatal("block scratch, or the FDAF kind's view of it, survived Close")
		}
		// Idempotent: stages are not closed twice.
		if err := pl.Close(); err != nil {
			t.Fatal(err)
		}
		if src.closed != 1 {
			t.Fatalf("second Close re-closed the source (%d)", src.closed)
		}
	}
}

func TestPipelineClosePropagatesFirstError(t *testing.T) {
	cfg := validConfig(256)
	boom := errors.New("pool drain failed")
	src := &closerSource{SliceSource: SliceSource{Samples: make([]float64, 256)}, err: boom}
	amb := &closerAmbient{SliceAmbient: SliceAmbient{
		Local: make([]float64, 256), Cup: make([]float64, 256),
	}}
	cfg.Reference = src
	cfg.Ambient = amb
	pl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close error = %v, want %v", err, boom)
	}
	if amb.closed != 1 {
		t.Fatal("ambient not closed after source close error")
	}
}

// TestPipelineOpenCloseLeaksNoGoroutines wraps 1000 build/run/close
// cycles — a fleet session churn — in a before/after goroutine census
// with stabilization: Build must never hide a goroutine behind a session.
func TestPipelineOpenCloseLeaksNoGoroutines(t *testing.T) {
	before := stableGoroutines(t)
	for i := 0; i < 1000; i++ {
		cfg := validConfig(256)
		pl, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.ProcessBlock(64); err != nil {
			t.Fatal(err)
		}
		if err := pl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	after := stableGoroutines(t)
	if after > before {
		t.Fatalf("goroutines grew %d → %d over 1000 open/close cycles", before, after)
	}
}

// stableGoroutines samples runtime.NumGoroutine until two consecutive
// reads agree (runtime helpers wind down asynchronously), bounded by a
// short deadline.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	prev := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}
