package sim

import (
	"math"
	"reflect"
	"testing"

	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// packetize drives a transport the way a pipeline binds it — through
// graph.Build, with the transport's prime booked — one frame window per
// block, and returns the reference as pulled (stream order: Delay 0), the
// run's counters and every drift window.
func packetize(tb testing.TB, ref []float64, lt LossTransport) ([]float64, []bool, LossTransportStats, []graph.DriftWindow) {
	tb.Helper()
	tp, err := PacketizeReference(ref, lt)
	if err != nil {
		tb.Fatal(err)
	}
	frameN := lt.frameSamples()
	tap := &graph.Tap{Inner: tp}
	zero := make([]float64, len(ref))
	cfg := graph.Config{
		SampleRate:   fs,
		Lookahead:    lt.PrimeSamples(),
		PrimeSamples: lt.PrimeSamples(),
		Canceller:    graph.CancellerParams{CausalTaps: 1, Mu: 0.01, SecondaryPath: []float64{1}},
		Reference:    tap,
		Ambient:      &graph.SliceAmbient{Local: zero, Cup: zero},
		SecondaryIR:  []float64{1},
	}
	if tp.Drift != nil {
		cfg.Drift = tp.Drift
	}
	pl, err := graph.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var wins []graph.DriftWindow
	for done := 0; done < len(ref); {
		got, err := pl.ProcessBlock(min(frameN, len(ref)-done))
		if err != nil || got == 0 {
			tb.Fatalf("pulled %d of %d samples: %v", done, len(ref), err)
		}
		done += got
		if tp.Drift != nil && done%frameN == 0 {
			wins = append(wins, tp.Drift.Window())
		}
	}
	stats := tp.Finish()
	if tp.Drift != nil && len(ref)%frameN != 0 {
		wins = append(wins, tp.Drift.Window()) // the tail window Finish played out
	}
	return tap.Samples, tap.Mask, stats, wins
}

// referencePlayout is the transport's former offline playout loop, kept
// as the oracle the pulled stack must equal bit for bit: it replays the
// whole send schedule window by window with its own copy of the steering
// law, and returns the received stream, its mask, the counters and every
// window's drift state (At is the window's first stream sample).
func referencePlayout(ref []float64, lt LossTransport) ([]float64, []bool, LossTransportStats, []graph.DriftWindow, error) {
	var stats LossTransportStats
	lt, err := lt.withDefaults()
	if err != nil {
		return nil, nil, stats, nil, err
	}
	sched, link, err := sendSchedule(ref, lt)
	if err != nil {
		return nil, nil, stats, nil, err
	}
	jb, err := stream.NewJitterBuffer(jitterDepth)
	if err != nil {
		return nil, nil, stats, nil, err
	}
	jb.Anchor(0)
	dec := stream.NewFECDecoder(4 * jitterDepth)
	var est *stream.DriftEstimator
	var rs *dsp.VariRateResampler
	if lt.Skew != nil || lt.DriftCorrect {
		if est, err = stream.NewDriftEstimator(stream.DriftConfig{}); err != nil {
			return nil, nil, stats, nil, err
		}
		stats.Drift = &DriftReport{}
		if lt.DriftCorrect {
			rs = dsp.NewVariRateResampler()
		}
	}
	rep := stats.Drift
	frameN, prime, n := lt.FrameSamples, lt.PrimeFrames, len(ref)
	nPops := (n + frameN - 1) / frameN
	recv := make([]float64, nPops*frameN)
	mask := make([]bool, nPops*frameN)
	var wins []graph.DriftWindow

	si := 0
	deliverDue := func(t float64, windowStart bool) {
		for ; si < len(sched); si++ {
			d := sched[si]
			if d.at > t || (d.drain && !(windowStart && d.at < t)) {
				return
			}
			out := dec.Add(d.f)
			if out == nil {
				continue
			}
			if out != d.f {
				stats.FECRecovered++
			}
			jb.Push(out)
			if est != nil && out == d.f && !d.f.Parity {
				est.Observe(d.f.Timestamp, d.at)
			}
		}
	}
	occSm, lastOcc := 0.0, 0.0
	var pulled []float64
	var pulledMask []bool
	for j := 0; j < nPops; j++ {
		start := j * frameN
		tPop := float64((j + prime + 1) * frameN)
		deliverDue(tPop, true)
		estPPM, fresh := 0.0, false
		if est != nil {
			estPPM, fresh = est.PPM(), est.Estimable(tPop)
		}
		rate := 1.0
		if rs != nil {
			occ := 0.0
			if est.Observations() > 0 {
				horizon := float64(est.LastTimestamp()) + float64(frameN) +
					(tPop-est.LastArrival())*(1+est.PPM()*1e-6)
				occ = horizon - rs.Position() - float64((prime+1)*frameN)
			}
			occSm += 0.125 * (occ - occSm)
			lastOcc = occ
			corr := estPPM
			if fresh {
				ph := occSm
				if ph > 40 {
					ph = 40
				} else if ph < -40 {
					ph = -40
				}
				corr += ph * stream.DriftPhaseGainPPM
			}
			rs.SetRate(1 + corr*1e-6)
			rate = rs.Rate()
		}
		for i := 0; i < frameN; {
			next := math.Inf(1)
			if si < len(sched) && !sched[si].drain {
				next = sched[si].at
			}
			k := i + 1
			for k < frameN && tPop+float64(k) < next {
				k++
			}
			if rs == nil {
				jb.PopMask(recv[start+i:start+k], mask[start+i:start+k])
			} else {
				need := rs.Need(k - i)
				if need > len(pulled) {
					pulled = make([]float64, need)
					pulledMask = make([]bool, need)
				}
				if need > 0 {
					jb.PopMask(pulled[:need], pulledMask[:need])
					for q := 0; q < need; q++ {
						rs.Push(pulled[q], pulledMask[q])
					}
				}
				for q := i; q < k; q++ {
					recv[start+q], mask[start+q], _ = rs.Pop()
				}
			}
			if k < frameN {
				deliverDue(tPop+float64(k), false)
			}
			i = k
		}
		w := graph.DriftWindow{At: int64(start), PPM: estPPM, RatePPM: (rate - 1) * 1e6, OccErr: lastOcc, Locked: fresh}
		if rep != nil {
			w.Step = est.StepSuspected()
			if w.Step {
				rep.RateJumps = append(rep.RateJumps, w.At)
			}
			if a := math.Abs(w.PPM); a > rep.MaxAbsPPM {
				rep.MaxAbsPPM = a
			}
			wins = append(wins, w)
		}
		if lt.Trace != nil && j%traceEveryFrames == 0 {
			tracePlayout(lt.Trace, int64(start), jb, stats.FECRecovered, frameN)
			if rep != nil {
				traceDrift(lt.Trace, int64(start), w)
			}
		}
	}
	deliverDue(math.Inf(1), true)
	if rep != nil {
		rep.FinalPPM = est.PPM()
		rep.FinalOccErr = lastOcc
	}
	stats.Jitter = jb.Stats()
	stats.Link = link.Stats()
	return recv[:n], mask[:n], stats, wins, nil
}

// FuzzScheduledTransport holds the pulled transport stack — deliveries
// landed by ear time into a ReceiverSource under a DriftSource, bound
// through graph.Build — to the reference playout loop bit for bit:
// samples, mask, counters, drift report, every drift window and every
// trace event, under random loss, bursts, duplication, reordering,
// jitter, FEC groups, prime depths, frame sizes and relay skews up to
// ±400 ppm with and without correction.
func FuzzScheduledTransport(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(40), int16(0), false, uint16(4000))
	f.Add(uint64(7), uint8(25), uint8(3), uint8(10), uint8(10), uint8(4), uint8(5), uint8(80), int16(100), true, uint16(8000))
	f.Add(uint64(42), uint8(25), uint8(4), uint8(0), uint8(0), uint8(4), uint8(1), uint8(40), int16(-100), true, uint16(8000))
	f.Add(uint64(9), uint8(5), uint8(0), uint8(25), uint8(25), uint8(0), uint8(3), uint8(16), int16(400), false, uint16(3001))
	f.Add(uint64(3), uint8(40), uint8(2), uint8(5), uint8(30), uint8(3), uint8(0), uint8(33), int16(-400), true, uint16(6007))
	f.Fuzz(func(t *testing.T, seed uint64, loss, burst, dup, reorder, fec, prime, frame uint8, ppm int16, correct bool, n uint16) {
		lt := LossTransport{
			Link: stream.LossParams{
				Seed:       seed,
				Loss:       float64(loss%50) / 100,
				MeanBurst:  float64(burst % 6),
				Duplicate:  float64(dup%50) / 100,
				Reorder:    float64(reorder%50) / 100,
				JitterProb: float64(reorder%50) / 100,
				MaxJitter:  int(dup % 4),
			},
			FrameSamples: int(frame%80) + 8,
			PrimeFrames:  int(prime % 8),
			DriftCorrect: correct,
		}
		if g := int(fec % 6); g >= 2 {
			lt.FECGroup = g
		}
		if ppm != 0 || correct {
			lt.Skew = &stream.SkewParams{Seed: seed + 41, PPM: float64(ppm % 401)}
		}
		rng := newLCG(seed)
		ref := make([]float64, int(n%8000)+1)
		for i := range ref {
			ref[i] = rng()
		}
		oracleTrace, gotTrace := telemetry.NewTrace(), telemetry.NewTrace()
		lt.Trace = oracleTrace
		wantRecv, wantMask, wantStats, wantWins, err := referencePlayout(ref, lt)
		if err != nil {
			t.Skip(err)
		}
		lt.Trace = gotTrace
		recv, mask, stats, wins := packetize(t, ref, lt)
		for i := range wantRecv {
			if math.Float64bits(recv[i]) != math.Float64bits(wantRecv[i]) || mask[i] != wantMask[i] {
				t.Fatalf("sample %d: %v/%v, oracle %v/%v", i, recv[i], mask[i], wantRecv[i], wantMask[i])
			}
		}
		if len(recv) != len(wantRecv) {
			t.Fatalf("pulled %d samples, oracle %d", len(recv), len(wantRecv))
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("stats %+v (drift %+v), oracle %+v (drift %+v)", stats, stats.Drift, wantStats, wantStats.Drift)
		}
		if !reflect.DeepEqual(wins, wantWins) {
			t.Fatalf("drift windows diverge (%d vs %d)", len(wins), len(wantWins))
		}
		if !reflect.DeepEqual(gotTrace.Events(), oracleTrace.Events()) {
			t.Fatalf("trace events diverge (%d vs %d)", gotTrace.Len(), oracleTrace.Len())
		}
	})
}

// newLCG returns a deterministic uniform generator on [-0.5, 0.5).
func newLCG(seed uint64) func() float64 {
	x := seed*6364136223846793005 + 1442695040888963407
	return func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11)/(1<<53) - 0.5
	}
}
