package graph_test

import (
	"math"
	"testing"

	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/stream"
)

// TestDriftSourceReadsRelayAxis drives the live drift stage by hand the
// way muteear meets it: the jitter buffer is not anchored, so its clock
// starts at the first frame, and the relay only starts ten windows after
// the ear began pulling (those pulls are concealed zeros that advance the
// resampler but not the buffer). The relay runs 100 ppm fast, and frames
// land only at window pulls. The source must read its position on the
// relay's timestamp axis: once locked, the occupancy error it steers on
// sits near zero. (Measured off the resampler's own count instead, the
// error starts ten windows off and pins the phase term at its clamp.)
func TestDriftSourceReadsRelayAxis(t *testing.T) {
	const (
		frameN  = 40
		windows = 600
		start   = 10 * frameN // ear time the relay's first frame is captured
	)
	jb, err := stream.NewJitterBuffer(32)
	if err != nil {
		t.Fatal(err)
	}
	est, err := stream.NewDriftEstimator(stream.DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ds := &graph.DriftSource{Inner: &graph.ReceiverSource{Buf: jbBuffer{jb}}, Est: est,
		RS: dsp.NewVariRateResampler(), Frame: frameN}
	period := frameN / (1 + 100e-6) // relay frame period on the ear clock
	dst, mask := make([]float64, frameN), make([]bool, frameN)
	k := 0
	for j := 0; j < windows; j++ {
		// Window j is pulled at ear time (j+1)·frameN (no prime booked):
		// land every frame captured by then.
		for ; float64(start)+float64(k+1)*period <= float64((j+1)*frameN); k++ {
			f := &stream.Frame{Seq: uint32(k), Timestamp: uint64(k * frameN), Samples: make([]float64, frameN)}
			for i := range f.Samples {
				f.Samples[i] = math.Sin(float64(k*frameN+i) / 7)
			}
			jb.Push(f)
			est.Observe(f.Timestamp, float64(start)+float64(k+1)*period)
		}
		ds.Pull(dst, mask, int64(j*frameN))
		w := ds.Window()
		if j < windows/2 {
			continue
		}
		if !w.Locked || math.Abs(w.OccErr) > 4 {
			t.Fatalf("window %d: occupancy error %.2f samples (locked %v)", j, w.OccErr, w.Locked)
		}
	}
	if d := ds.Window().RatePPM - 100; math.Abs(d) > 10 {
		t.Errorf("applied rate %.1f ppm, want ~100", ds.Window().RatePPM)
	}
}
