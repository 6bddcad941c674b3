package graph_test

import (
	"math"
	"reflect"
	"testing"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// jbBuffer adapts a bare in-process JitterBuffer to the FrameBuffer face a
// live receiver presents (the network receiver adds FEC; the buffer alone
// recovers nothing).
type jbBuffer struct{ *stream.JitterBuffer }

func (jbBuffer) Recovered() uint64 { return 0 }

// equivCase is one frame schedule driven through both instantiations.
type equivCase struct {
	name      string
	dropFrame int // -1 = deliver everything
	supervise bool
}

// TestCrossWiringEquivalence is the dual-wiring regression test the graph
// package exists for: the simulator's instantiation (pre-rendered slices)
// and the live CLI's instantiation (jitter-buffered receiver source plus
// the derived acoustic leg) of the same Config must produce bit-identical
// residuals and identical trace events, clean and under frame loss, with
// and without the supervisor. Before the unification these were two
// hand-maintained loops that could — and did — drift apart.
func TestCrossWiringEquivalence(t *testing.T) {
	for _, tc := range []equivCase{
		{name: "clean", dropFrame: -1},
		{name: "dropped frame", dropFrame: 30},
		{name: "dropped frame supervised", dropFrame: 30, supervise: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				frameN = 40
				frames = 100
				total  = frameN * frames
			)
			rng := audio.NewRNG(7)
			signal := make([]float64, total)
			for i := range signal {
				signal[i] = 0.4*math.Sin(2*math.Pi*180*float64(i)/8000) + 0.1*rng.Norm()
			}

			// The live wiring drains a jitter buffer; the sim wiring replays
			// the same transport offline into slices. Feed both buffers the
			// identical frame schedule so any divergence is wiring, not data.
			recv := make([]float64, total)
			mask := make([]bool, total)
			jbA := pushSchedule(t, signal, frameN, frames, tc.dropFrame)
			for off := 0; off < total; off += frameN {
				jbA.PopMask(recv[off:off+frameN], mask[off:off+frameN])
			}
			jbB := pushSchedule(t, signal, frameN, frames, tc.dropFrame)

			// The sim wiring pre-renders the acoustic leg the live wiring
			// derives on the fly: the received stream, delayed and shaped.
			const lookahead = 64
			earChannel := []float64{0.8, 0.25, 0.1, 0.05}
			dl, err := dsp.NewDelayLine(lookahead)
			if err != nil {
				t.Fatal(err)
			}
			cv := dsp.NewStreamConvolver(earChannel)
			ambient := make([]float64, total)
			for i, x := range recv {
				ambient[i] = cv.Process(dl.Process(x))
			}
			dlLive, err := dsp.NewDelayLine(lookahead)
			if err != nil {
				t.Fatal(err)
			}

			base := func() graph.Config {
				secPath := []float64{0.85, 0.22, 0.06}
				cfg := graph.Config{
					SampleRate: 8000,
					Lookahead:  lookahead,
					Pipeline:   core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1},
					Canceller: graph.CancellerParams{
						CausalTaps:    64,
						Mu:            0.1,
						SecondaryPath: secPath,
						LossAware:     true,
					},
					SecondaryIR: secPath,
					TraceBlock:  frameN,
				}
				if tc.supervise {
					cfg.Supervise = true
				}
				return cfg
			}

			simCfg := base()
			simCfg.Reference = &graph.SliceSource{Samples: recv, Mask: mask}
			simCfg.Ambient = &graph.SliceAmbient{Local: ambient, Cup: ambient}
			simRes, simTrace := runWiring(t, simCfg, total, frameN)

			liveCfg := base()
			liveCfg.Reference = &graph.ReceiverSource{Buf: jbBuffer{jbB}}
			liveCfg.Ambient = &graph.DerivedAmbient{Delay: dlLive, Channel: dsp.NewStreamConvolver(earChannel)}
			liveRes, liveTrace := runWiring(t, liveCfg, total, frameN)

			for i := range simRes {
				if simRes[i] != liveRes[i] {
					t.Fatalf("residuals diverge at sample %d: sim %v, live %v", i, simRes[i], liveRes[i])
				}
			}
			if !reflect.DeepEqual(simTrace, liveTrace) {
				t.Fatalf("trace events diverge: sim recorded %d events, live %d", len(simTrace), len(liveTrace))
			}
			if len(simTrace) == 0 {
				t.Fatal("no trace events recorded")
			}

			// Sanity: the loss variants really exercised concealment.
			if tc.dropFrame >= 0 {
				gap := tc.dropFrame * frameN
				for i := gap; i < gap+frameN; i++ {
					if mask[i] {
						t.Fatalf("sample %d in the dropped frame is unmasked", i)
					}
				}
			}
		})
	}
}

// pushSchedule fills a jitter buffer with the frame schedule, skipping
// dropFrame (-1 = none).
func pushSchedule(t *testing.T, signal []float64, frameN, frames, dropFrame int) *stream.JitterBuffer {
	t.Helper()
	jb, err := stream.NewJitterBuffer(frames + 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < frames; k++ {
		if k == dropFrame {
			continue
		}
		payload := make([]float64, frameN)
		copy(payload, signal[k*frameN:(k+1)*frameN])
		jb.Push(&stream.Frame{
			Seq:       uint32(k),
			Timestamp: uint64(k * frameN),
			Samples:   payload,
		})
	}
	return jb
}

// runWiring builds and drives one instantiation, returning its residual
// stream and trace events.
func runWiring(t *testing.T, cfg graph.Config, total, block int) ([]float64, []telemetry.Event) {
	t.Helper()
	residual := make([]float64, total)
	tr := telemetry.NewTrace()
	cfg.Residual = residual
	cfg.Trace = tr
	pl, err := graph.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(total, block); err != nil {
		t.Fatal(err)
	}
	if pl.Samples() != int64(total) {
		t.Fatalf("wiring processed %d samples, want %d", pl.Samples(), total)
	}
	return residual, tr.Events()
}
