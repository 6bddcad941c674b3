package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"mute/internal/audio"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// transportDigest hashes everything a transport run hands back to its
// callers: the received samples' bits, the concealment mask, the
// jitter/link/FEC counters, the drift report and windows (when there is
// a drift stage) and every trace event the transport records.
func transportDigest(recv []float64, mask []bool, st LossTransportStats, wins []graph.DriftWindow, events []telemetry.Event) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	for i, v := range recv {
		putF(v)
		if mask[i] {
			put(1)
		} else {
			put(0)
		}
	}
	j, l := st.Jitter, st.Link
	for _, v := range []uint64{
		j.FramesReceived, j.FramesDuplicate, j.FramesLate, j.FramesDropped,
		j.FramesCorrupt, j.SamplesConcealed, j.SamplesDelivered,
		l.Offered, l.Dropped, l.OutageDropped, l.Duplicated, l.Delayed, l.Delivered,
		st.FECRecovered,
	} {
		put(v)
	}
	if d := st.Drift; d != nil {
		putF(d.FinalPPM)
		putF(d.MaxAbsPPM)
		putF(d.FinalOccErr)
		for _, at := range d.RateJumps {
			put(uint64(at))
		}
		for _, w := range wins {
			put(uint64(w.At))
			putF(w.PPM)
			putF(w.RatePPM)
			putF(w.OccErr)
		}
	}
	for _, ev := range events {
		put(uint64(ev.T))
		h.Write([]byte(ev.Stage + "/" + ev.Name))
		keys := make([]string, 0, len(ev.Values))
		for k := range ev.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			putF(ev.Values[k])
		}
	}
	return h.Sum64()
}

// TestPacketizeReferenceDigestsPinned pins the transport's exact output
// as data, pulled through the bound source stack: each configuration's
// digest (samples, mask, counters, drift report and windows, trace) must
// not move, so any change to what a packetized run
// delivers shows here. Loss-only runs must also carry no drift report
// and record no drift-stage events.
func TestPacketizeReferenceDigestsPinned(t *testing.T) {
	noise := audio.Render(audio.NewWhiteNoise(3, fs, 0.5), 8000)
	cases := []struct {
		name string
		ref  []float64
		lt   LossTransport
		want uint64
	}{
		{"perfect", noise, LossTransport{Link: stream.LossParams{Seed: 1}, FrameSamples: 40}, 0x6e62341989ce4284},
		{"partial_tail", noise[:1000], LossTransport{Link: stream.LossParams{Seed: 1}, PrimeFrames: 2}, 0x35fd70efca3d783f},
		{"burst_fec", noise, LossTransport{
			Link:     stream.LossParams{Seed: 7, Loss: 0.1, MeanBurst: 3},
			FECGroup: 4, PrimeFrames: 5,
		}, 0x374d91d2f9d3142c},
		{"outage", noise, LossTransport{
			Link:         stream.LossParams{Seed: 9, Outages: []stream.Outage{{StartSlot: 60, DurationSlots: 25}}},
			FrameSamples: 40, PrimeFrames: 1,
		}, 0xf6209c63362ae923},
		{"dup_reorder", noise, LossTransport{
			Link: stream.LossParams{Seed: 11, Duplicate: 0.1, Reorder: 0.1,
				JitterProb: 0.1, MaxJitter: 2},
			FrameSamples: 40, PrimeFrames: 3,
		}, 0x81e0270c8595138f},
		{"skew_naive", noise, LossTransport{
			FrameSamples: 40, PrimeFrames: 1,
			Skew: &stream.SkewParams{PPM: 100},
		}, 0x383ec39489e53d9},
		{"skew_corrected", noise, LossTransport{
			FrameSamples: 40, PrimeFrames: 1,
			Skew: &stream.SkewParams{PPM: 100}, DriftCorrect: true,
		}, 0xcf4af833ae8062e7},
		{"skew_burst_corrected", noise, LossTransport{
			Link:         stream.LossParams{Seed: 42, Loss: 0.1, MeanBurst: 4},
			FrameSamples: 40, PrimeFrames: 1, FECGroup: 4,
			Skew: &stream.SkewParams{PPM: -100}, DriftCorrect: true,
		}, 0x205a4a5063c6331d},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := telemetry.NewTrace()
			lt := c.lt
			lt.Trace = tr
			recv, mask, st, wins := packetize(t, c.ref, lt)
			events := tr.Events()
			if got := transportDigest(recv, mask, st, wins, events); got != c.want {
				t.Errorf("digest %#x, want %#x", got, c.want)
			}
			// Each impaired case must actually exercise its impairment.
			if l := st.Link; (c.lt.Link.Loss > 0 && st.FECRecovered == 0) ||
				(len(c.lt.Link.Outages) > 0 && l.OutageDropped == 0) ||
				(c.lt.Link.Duplicate > 0 && (l.Duplicated == 0 || l.Delayed == 0)) {
				t.Errorf("impairment not exercised: %+v", st)
			}
			if c.lt.Skew != nil || c.lt.DriftCorrect {
				if st.Drift == nil {
					t.Error("drift stage configured but no drift report")
				}
				return
			}
			if st.Drift != nil {
				t.Errorf("loss-only run carries a drift report: %+v", st.Drift)
			}
			for _, ev := range events {
				if ev.Stage == telemetry.StageDrift {
					t.Fatalf("loss-only run recorded a drift event at t=%d", ev.T)
				}
			}
		})
	}
}

// BenchmarkPacketizeReference times 12 s of 8 kHz reference through the
// transport: burst loss with FEC on a clean clock, and a 100 ppm relay
// skew with drift correction.
func BenchmarkPacketizeReference(b *testing.B) {
	ref := audio.Render(audio.NewWhiteNoise(5, fs, 0.5), 12*8000)
	for _, c := range []struct {
		name string
		lt   LossTransport
	}{
		{"burst_fec", LossTransport{
			Link:         stream.LossParams{Seed: 42, Loss: 0.1, MeanBurst: 4},
			FrameSamples: 40, PrimeFrames: 1, FECGroup: 4,
		}},
		{"skew_corrected", LossTransport{
			FrameSamples: 40, PrimeFrames: 1,
			Skew: &stream.SkewParams{PPM: 100}, DriftCorrect: true,
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				packetize(b, ref, c.lt)
			}
			b.ReportMetric(float64(len(ref))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
