// Command muteear is the ear-device half of the live MUTE demo: it
// receives the relay's timestamped audio frames over UDP, reconstructs the
// reference stream through a jitter buffer, and runs LANC against a locally
// simulated acoustic leg — the received stream delayed by the configured
// acoustic lookahead and shaped by a multipath channel stands in for the
// sound wavefront that would reach the ear later than the radio did.
//
// The cancellation pipeline itself is not wired here: muteear binds its
// live sources (the UDP receiver, the drift-corrected resampler, the
// derived acoustic leg) to the same pipeline graph the simulator
// instantiates (mute.BuildPipeline), so the live loop and the simulated
// one cannot diverge stage by stage.
//
// Usage:
//
//	muteear -listen 127.0.0.1:9950 -duration 12 -lookahead-ms 8
//	muterelay -dest 127.0.0.1:9950 -sound speech -duration 10
//
// Loss-aware mode (-loss-aware, on by default) feeds the jitter buffer's
// concealment mask to the canceller: adaptation freezes while zero-filled
// gap samples sit in the gradient window and ramps back afterwards, so a
// lossy link (real, or injected with muterelay's -loss flags) degrades
// cancellation toward the passive floor instead of corrupting the filter.
//
// Supervised mode (-supervise) adds the relay-outage degradation ladder:
// a link-health estimator demotes the canceller to a shrunken lookahead
// window, then to a local causal fallback (warm-started from LANC's
// causal taps), then to passthrough as the link dies — and probes its way
// back up once frames flow again. Pair with muterelay's
// -outage-at/-outage-dur flags to watch a scripted relay reboot.
//
// Drift-corrected mode (-drift-correct) slaves the received reference to
// the local sample clock through the same drift stage the simulator
// runs: a drift estimator fits the relay-vs-ear skew from frame
// timestamps against wall-clock arrivals, and a continuous-rate resampler
// between the jitter buffer and the canceller consumes input at the
// estimated rate plus a phase term that holds the read position a frame
// behind the relay. Pair with muterelay's -skew-ppm flag to watch a
// detuned relay oscillator get cancelled anyway; with -supervise, a skew
// the resampler leaves uncorrected beyond the supervisor's drift
// thresholds also walks the degradation ladder.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mute/internal/core"
	"mute/internal/dsp"
	"mute/pkg/mute"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:9950", "UDP listen address")
		duration    = flag.Float64("duration", 12, "seconds to run before reporting")
		lookaheadMs = flag.Float64("lookahead-ms", 8, "simulated acoustic lookahead")
		frame       = flag.Int("frame", 80, "samples per processing block")
		lossAware   = flag.Bool("loss-aware", true, "freeze adaptation over concealed (lost) samples")
		driftOn     = flag.Bool("drift-correct", false, "estimate relay clock skew and resample the reference to the local clock")
		supervise   = flag.Bool("supervise", false, "run the degradation ladder: demote to a local causal fallback (and recover) as relay link health changes")
		traceOut    = flag.String("trace-out", "", "write a per-stage JSONL trace to this file")
		debugAddr   = flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof on this address")
	)
	flag.Parse()

	const fs = 8000.0
	const fsInt = 8000
	rx, err := mute.NewReceiver(*listen, 256)
	if err != nil {
		fatal(err)
	}
	defer rx.Close()
	fmt.Printf("muteear: listening on %s\n", rx.Addr())

	// The drift resampler's cubic kernel reads up to 2 samples of future,
	// a real debit against the acoustic lookahead (see OBSERVABILITY.md).
	driftGuard := 0
	if *driftOn {
		driftGuard = 2
	}
	lookahead := int(*lookaheadMs / 1000 * fs)
	if lookahead < 5+driftGuard {
		lookahead = 5 + driftGuard
	}
	// Simulated acoustic leg: the same waveform the radio forwarded,
	// arriving `lookahead` samples later through a small multipath channel.
	acousticDelay, err := dsp.NewDelayLine(lookahead)
	if err != nil {
		fatal(err)
	}
	earChannel := dsp.NewStreamConvolver(core.EarChannel())
	secPath := core.EarSecondaryPath()

	var tr *mute.Trace
	if *traceOut != "" {
		tr = mute.NewTrace()
	}
	reg := mute.NewTelemetry()
	if *debugAddr != "" {
		mute.PublishTelemetry("mute", reg)
		// Bind before the audio loop starts: a bad address or occupied
		// port must fail the run, not surface minutes later from a
		// goroutine. The dedicated mux keeps handlers other packages
		// register off the debug port.
		bound, err := mute.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("muteear: expvar/pprof on http://%s/debug/vars\n", bound)
	}

	start := time.Now()
	var est *mute.DriftEstimator
	recv := &mute.ReceiverSource{Buf: rx}
	ref := mute.SampleSource(recv)
	var driftCtl mute.DriftControl
	var rs *mute.VariRateResampler
	if *driftOn {
		// Live arrivals carry ~0.5 ms of scheduler jitter, so the slope
		// needs a much longer baseline than the simulator's exact-clock
		// default: 512 frames pairs observations ~2.5 s apart, putting the
		// per-pair noise floor near 100 ppm before the median and loop
		// filter grind it down further.
		est, err = mute.NewDriftEstimator(mute.DriftConfig{WindowFrames: 512, SlopeGain: 0.02})
		if err != nil {
			fatal(err)
		}
		rs = mute.NewVariRateResampler()
		// The drift source is also the drift control (holds of two frames
		// at a suspected oscillator step).
		ds := &mute.DriftSource{Inner: recv, Est: est, RS: rs, Frame: *frame, Hold: 2 * *frame}
		ref, driftCtl = ds, ds
		// Every direct data frame contributes one (relay timestamp,
		// arrival) pair. The drift source's clock puts output sample o at
		// o plus one frame, when its block is pulled; stamping arrivals one
		// frame late makes the phase term keep one frame of jitter margin.
		rx.SetFrameObserver(func(ts uint64) {
			est.Observe(ts, time.Since(start).Seconds()*fs+float64(*frame))
		})
	}

	pl, err := mute.BuildPipeline(mute.PipelineConfig{
		SampleRate: fs,
		Lookahead:  lookahead,
		DriftGuard: driftGuard,
		// The demo ear's chain carries no device latency, so no pipeline
		// is debited (see core.EarSecondaryPath).
		Canceller: mute.PipelineCancellerParams{
			CausalTaps:    core.EarCausalTaps,
			Mu:            0.1,
			SecondaryPath: secPath,
			LossAware:     *lossAware,
		},
		Supervise:   *supervise,
		Reference:   ref,
		Ambient:     &mute.DerivedAmbient{Delay: acousticDelay, Channel: earChannel},
		Drift:       driftCtl,
		SecondaryIR: secPath,
		Trace:       tr,
		TraceBlock:  *frame,
		LiveHooks:   true,
		Telemetry:   reg,
	})
	if err != nil {
		fatal(err)
	}
	// The budget report shows where the configured lookahead goes (its
	// entries sum to `lookahead` by construction, and land in the trace as
	// budget-stage events).
	fmt.Print(pl.Spend.Text())

	deadline := start.Add(time.Duration(*duration * float64(time.Second)))
	var blocks int64
	for time.Now().Before(deadline) {
		// Receive until the next block boundary: Poll blocks until a
		// datagram lands or the boundary passes, so the poll window itself
		// paces the loop at the audio clock AND every frame is observed at
		// its true arrival instant — the x-axis of the drift estimator's
		// slope fit. (Draining once per block and sleeping would batch
		// arrivals at the ear's loop period and bias the fit.) The boundary
		// is computed in integer arithmetic from the block count — a
		// truncated per-block interval would accumulate into an artificial
		// skew the estimator then pins on the relay.
		blocks++
		next := mute.BlockDeadline(start, blocks, int64(*frame), fsInt)
		for {
			d := time.Until(next)
			if d <= 0 {
				break
			}
			if _, err := rx.Poll(d); err != nil {
				// Poll returns nil on timeouts and corrupt datagrams (those
				// are counted in the jitter stats); an error here is a real
				// socket failure.
				fmt.Fprintln(os.Stderr, "muteear: receive error:", err)
			}
		}
		if _, err := pl.ProcessBlock(*frame); err != nil {
			fatal(err)
		}
	}
	st := rx.Stats()
	st.Publish(reg, "stream.")
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("muteear: wrote %d trace events to %s\n", tr.Len(), *traceOut)
	}
	samples := pl.Samples()
	fmt.Printf("muteear: %d samples, %d frames received (%d late, %d dropped, %d corrupt), %d samples concealed, %d frames FEC-recovered\n",
		samples, st.FramesReceived, st.FramesLate, st.FramesDropped, st.FramesCorrupt, st.SamplesConcealed, rx.Recovered())
	if est != nil {
		fmt.Printf("muteear: drift estimate %+.1f ppm from %d frames (locked=%v, resampler rate %.6f)\n",
			est.PPM(), est.Observations(), est.Locked(), rs.Rate())
	}
	if rep := pl.Supervision(); rep != nil {
		fmt.Printf("muteear: supervisor ended in %s after %d transitions (%d probes, %d warm starts)\n",
			rep.FinalState, len(rep.Transitions), rep.Probes, rep.WarmStarts)
		for rung := mute.StateLANC; rung <= mute.StatePassthrough; rung++ {
			if rep.TimeInState[rung] > 0 {
				fmt.Printf("muteear:   %-11s %6.1f%%\n", rung.String(),
					100*float64(rep.TimeInState[rung])/float64(samples))
			}
		}
	}
	noisePow, resPow := pl.Meters()
	if noisePow > 0 && resPow > 0 {
		fmt.Printf("muteear: cancellation %.1f dB (lookahead %d samples, N=%d non-causal taps)\n",
			dsp.DB(resPow/noisePow), lookahead, pl.NonCausalTaps)
	} else {
		fmt.Println("muteear: no audio received")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "muteear:", err)
	os.Exit(1)
}
