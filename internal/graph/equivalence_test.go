package graph_test

import (
	"math"
	"reflect"
	"testing"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/sim"
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
// and without the supervisor, and over the packetized transport under
// loss and relay skew (crossWiringTransport). Before the unification these were two
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
			simCfg.Reference = &slices{x: recv, m: mask}
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
	crossWiringTransport(t)
}

// crossWiringTransport extends the dual-wiring test to the packetized
// transport, under loss and under relay skew: the simulator's
// scheduled source (sim.Transport) and a test-fed live stack — frames
// decoded, pushed into a JitterBuffer and observed by the drift estimator
// at their delivery times, drained through ReceiverSource and DriftSource,
// the pipeline pulled in runs that end at frame windows and deliveries —
// must give bit-identical residuals and identical trace events.
func crossWiringTransport(t *testing.T) {
	for _, tc := range []struct {
		name      string
		lt        sim.LossTransport
		supervise bool
	}{
		{"lossy", sim.LossTransport{
			Link: stream.LossParams{Seed: 5, Loss: 0.1, MeanBurst: 3, Duplicate: 0.05,
				Reorder: 0.05, JitterProb: 0.05, MaxJitter: 2},
			FrameSamples: 40, PrimeFrames: 3, FECGroup: 4, LossAware: true,
		}, false},
		{"skew 100 ppm", sim.LossTransport{
			Link:         stream.LossParams{Seed: 6},
			FrameSamples: 40, PrimeFrames: 1, LossAware: true,
			Skew: &stream.SkewParams{Seed: 7, PPM: 100}, DriftCorrect: true,
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const total = 8000
			frameN, prime := tc.lt.FrameSamples, tc.lt.PrimeSamples()
			rng := audio.NewRNG(9)
			signal := make([]float64, total)
			for i := range signal {
				signal[i] = 0.4*math.Sin(2*math.Pi*180*float64(i)/8000) + 0.1*rng.Norm()
			}
			const lookahead = 64
			dl, err := dsp.NewDelayLine(lookahead)
			if err != nil {
				t.Fatal(err)
			}
			cv := dsp.NewStreamConvolver([]float64{0.8, 0.25, 0.1, 0.05})
			ambient := make([]float64, total)
			for i, x := range signal {
				ambient[i] = cv.Process(dl.Process(x))
			}
			base := func() graph.Config {
				secPath := []float64{0.85, 0.22, 0.06}
				return graph.Config{
					SampleRate:   8000,
					Lookahead:    lookahead + prime,
					PrimeSamples: prime,
					Pipeline:     core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1},
					Canceller: graph.CancellerParams{
						CausalTaps:    64,
						Mu:            0.1,
						SecondaryPath: secPath,
						LossAware:     true,
					},
					Ambient:     &graph.SliceAmbient{Local: ambient, Cup: ambient},
					SecondaryIR: secPath,
					Supervise:   tc.supervise,
					TraceBlock:  frameN,
				}
			}

			simCfg := base()
			tp, err := sim.PacketizeReference(signal, tc.lt)
			if err != nil {
				t.Fatal(err)
			}
			simCfg.Reference = tp
			if tp.Drift != nil {
				tp.Drift.Hold = 2 * frameN
				simCfg.Drift = tp.Drift
			}
			simRes, simTrace := runWiring(t, simCfg, total, 512)

			// The live wiring, fed by hand on the same send schedule.
			sched := sendSchedule(t, signal, tc.lt)
			jb, err := stream.NewJitterBuffer(32)
			if err != nil {
				t.Fatal(err)
			}
			jb.Anchor(0)
			dec := stream.NewFECDecoder(128)
			var est *stream.DriftEstimator
			liveCfg := base()
			recv := &graph.ReceiverSource{Buf: jbBuffer{jb}}
			liveCfg.Reference = recv
			if tp.Drift != nil {
				if est, err = stream.NewDriftEstimator(stream.DriftConfig{}); err != nil {
					t.Fatal(err)
				}
				ds := &graph.DriftSource{Inner: recv, Est: est, RS: dsp.NewVariRateResampler(),
					Frame: frameN, Hold: 2 * frameN}
				liveCfg.Reference, liveCfg.Drift = ds, ds
			}
			liveRes := make([]float64, total)
			liveTr := telemetry.NewTrace()
			liveCfg.Residual, liveCfg.Trace = liveRes, liveTr
			pl, err := graph.Build(liveCfg)
			if err != nil {
				t.Fatal(err)
			}
			si := 0
			land := func(at float64, windowStart bool) {
				for ; si < len(sched); si++ {
					d := sched[si]
					if d.at > at || (d.drain && !(windowStart && d.at < at)) {
						return
					}
					if out := dec.Add(d.f); out != nil {
						jb.Push(out)
						if est != nil && out == d.f && !d.f.Parity {
							est.Observe(d.f.Timestamp, d.at)
						}
					}
				}
			}
			for done := 0; done < total; {
				ear := float64(prime + frameN + done) // ear time of the next pulled sample
				land(ear, done%frameN == 0)
				next := math.Inf(1)
				if si < len(sched) && !sched[si].drain {
					next = sched[si].at
				}
				k, end := 1, min(total-done, frameN-done%frameN)
				for k < end && ear+float64(k) < next {
					k++
				}
				if _, err := pl.ProcessBlock(k); err != nil {
					t.Fatal(err)
				}
				done += k
			}
			for i := range simRes {
				if math.Float64bits(simRes[i]) != math.Float64bits(liveRes[i]) {
					t.Fatalf("residuals diverge at sample %d: sim %v, live %v", i, simRes[i], liveRes[i])
				}
			}
			if !reflect.DeepEqual(simTrace, liveTr.Events()) {
				t.Fatalf("trace events diverge: sim recorded %d events, live %d", len(simTrace), liveTr.Len())
			}
			st := tp.Finish()
			if tc.lt.Skew == nil && (st.Jitter.SamplesConcealed == 0 || st.FECRecovered == 0) {
				t.Fatalf("lossy case exercised no concealment or FEC: %+v", st)
			}
			if tc.lt.Skew != nil && (st.Drift.FinalPPM < 50 || st.Drift.FinalPPM > 150) {
				t.Fatalf("skew case never tracked the relay clock: %+v", st.Drift)
			}
		})
	}
}

// delivery is one scheduled frame landing at the ear.
type delivery struct {
	at    float64
	f     *stream.Frame
	drain bool
}

// sendSchedule replays a transport's send side — capture on the skewed
// relay clock, the impaired link, FEC encoding — into ear-time deliveries,
// as sim.PacketizeReference schedules them.
func sendSchedule(t *testing.T, ref []float64, lt sim.LossTransport) []delivery {
	t.Helper()
	var sp stream.SkewParams
	if lt.Skew != nil {
		sp = *lt.Skew
	}
	cs, err := stream.NewClockSkew(sp)
	if err != nil {
		t.Fatal(err)
	}
	link, err := stream.NewLossyLink(lt.Link)
	if err != nil {
		t.Fatal(err)
	}
	var enc *stream.FECEncoder
	if lt.FECGroup > 0 {
		if enc, err = stream.NewFECEncoder(lt.FECGroup); err != nil {
			t.Fatal(err)
		}
	}
	var sched []delivery
	add := func(at float64, frames []*stream.Frame, drain bool) {
		for _, f := range frames {
			sched = append(sched, delivery{at, f, drain})
		}
	}
	seq, ts := uint32(0), uint64(0)
	for cs.Pos() < float64(len(ref)) {
		f := &stream.Frame{Seq: seq, Timestamp: ts, Samples: cs.Capture(ref, lt.FrameSamples)}
		ts += uint64(lt.FrameSamples)
		seq++
		add(cs.Pos(), link.Transfer(f), false)
		if enc != nil {
			if parity := enc.Add(f); parity != nil {
				parity.Seq = seq
				seq++
				add(cs.Pos(), link.Transfer(parity), false)
			}
		}
	}
	add(cs.Pos(), link.Drain(), true)
	return sched
}

// slices serves a pre-rendered stream and its concealment mask.
type slices struct {
	x   []float64
	m   []bool
	pos int
}

func (s *slices) Pull(dst []float64, mask []bool, _ int64) int {
	n := copy(dst, s.x[s.pos:])
	copy(mask[:n], s.m[s.pos:])
	s.pos += n
	return n
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
