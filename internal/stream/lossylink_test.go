package stream

import (
	"math"
	"reflect"
	"testing"
	"time"

	"mute/internal/audio"
)

func linkFrames(count, size int) []*Frame {
	g := audio.NewWhiteNoise(3, 8000, 0.8)
	out := make([]*Frame, count)
	for i := range out {
		out[i] = &Frame{
			Seq:       uint32(i),
			Timestamp: uint64(i * size),
			Samples:   audio.Render(g, size),
		}
	}
	return out
}

// runLink pushes frames through a link and returns the delivered sequence.
func runLink(t *testing.T, p LossParams, frames []*Frame) []*Frame {
	t.Helper()
	link, err := NewLossyLink(p)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Frame
	for _, f := range frames {
		out = append(out, link.Transfer(f)...)
	}
	out = append(out, link.Drain()...)
	return out
}

func TestLossyLinkPerfectIsIdentity(t *testing.T) {
	frames := linkFrames(50, 8)
	out := runLink(t, LossParams{Seed: 1}, frames)
	if len(out) != len(frames) {
		t.Fatalf("delivered %d frames, want %d", len(out), len(frames))
	}
	for i, f := range out {
		if f != frames[i] {
			t.Fatalf("frame %d reordered or replaced", i)
		}
	}
}

func TestLossyLinkDeterministicPerSeed(t *testing.T) {
	p := LossParams{Seed: 9, Loss: 0.2, Duplicate: 0.1, Reorder: 0.1, JitterProb: 0.2, MaxJitter: 3}
	frames := linkFrames(200, 4)
	a := runLink(t, p, frames)
	b := runLink(t, p, frames)
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d frames", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq {
			t.Fatalf("same seed diverged at delivery %d: seq %d vs %d", i, a[i].Seq, b[i].Seq)
		}
	}
	p2 := p
	p2.Seed = 10
	c := runLink(t, p2, frames)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Seq != c[i].Seq {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical impairment patterns")
	}
}

func TestLossyLinkIIDLossRate(t *testing.T) {
	const n = 5000
	link, err := NewLossyLink(LossParams{Seed: 4, Loss: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range linkFrames(n, 2) {
		link.Transfer(f)
	}
	link.Drain()
	st := link.Stats()
	rate := float64(st.Dropped) / float64(st.Offered)
	if math.Abs(rate-0.1) > 0.02 {
		t.Errorf("i.i.d. loss rate = %.3f, want ≈ 0.10", rate)
	}
	if st.Delivered != st.Offered-st.Dropped {
		t.Errorf("delivered %d, want offered−dropped = %d", st.Delivered, st.Offered-st.Dropped)
	}
}

func TestLossyLinkBurstLossMatchesTargets(t *testing.T) {
	const n = 20000
	link, err := NewLossyLink(LossParams{Seed: 5, Loss: 0.1, MeanBurst: 4})
	if err != nil {
		t.Fatal(err)
	}
	dropped := make([]bool, n)
	for i, f := range linkFrames(n, 2) {
		before := link.Stats().Dropped
		link.Transfer(f)
		dropped[i] = link.Stats().Dropped > before
	}
	st := link.Stats()
	rate := float64(st.Dropped) / float64(st.Offered)
	if math.Abs(rate-0.1) > 0.03 {
		t.Errorf("burst loss rate = %.3f, want ≈ 0.10", rate)
	}
	// Mean run length of consecutive drops should be near MeanBurst.
	var runs, lost int
	inRun := false
	for _, d := range dropped {
		if d {
			lost++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if runs == 0 {
		t.Fatal("no loss bursts observed")
	}
	mean := float64(lost) / float64(runs)
	if mean < 2.5 || mean > 6 {
		t.Errorf("mean burst length = %.2f, want ≈ 4", mean)
	}
}

func TestLossyLinkDuplication(t *testing.T) {
	link, err := NewLossyLink(LossParams{Seed: 6, Duplicate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	frames := linkFrames(1000, 2)
	total := 0
	for _, f := range frames {
		total += len(link.Transfer(f))
	}
	total += len(link.Drain())
	st := link.Stats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates at p=0.5")
	}
	if total != len(frames)+int(st.Duplicated) {
		t.Errorf("delivered %d frames, want %d originals + %d copies",
			total, len(frames), st.Duplicated)
	}
}

func TestLossyLinkJitterDelaysAndReorders(t *testing.T) {
	link, err := NewLossyLink(LossParams{Seed: 2, JitterProb: 0.5, MaxJitter: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := linkFrames(500, 2)
	var out []*Frame
	for _, f := range frames {
		out = append(out, link.Transfer(f)...)
	}
	out = append(out, link.Drain()...)
	if len(out) != len(frames) {
		t.Fatalf("delivered %d, want %d (jitter must not lose frames)", len(out), len(frames))
	}
	if link.Stats().Delayed == 0 {
		t.Fatal("no frames delayed at p=0.5")
	}
	reordered := false
	for i := 1; i < len(out); i++ {
		if out[i].Seq < out[i-1].Seq {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Error("jitter produced no reordering across 500 frames")
	}
}

func TestLossyLinkIdleSlotsFlushDelayedFrames(t *testing.T) {
	link, err := NewLossyLink(LossParams{Seed: 8, JitterProb: 1, MaxJitter: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := linkFrames(1, 4)[0]
	if got := link.Transfer(f); len(got) != 0 {
		t.Fatalf("jittered frame delivered immediately: %d", len(got))
	}
	var out []*Frame
	for i := 0; i < 3 && len(out) == 0; i++ {
		out = append(out, link.Transfer(nil)...)
	}
	if len(out) != 1 || out[0] != f {
		t.Fatalf("idle slots did not flush the delayed frame: %v", out)
	}
}

func TestLossParamsValidate(t *testing.T) {
	bad := []LossParams{
		{Loss: -0.1},
		{Loss: 1},
		{MeanBurst: -1},
		{Duplicate: 1.5},
		{Reorder: -0.2},
		{JitterProb: 2},
		{MaxJitter: -1},
		{JitterProb: 0.5}, // MaxJitter missing
	}
	for i, p := range bad {
		if _, err := NewLossyLink(p); err == nil {
			t.Errorf("case %d: params %+v should be rejected", i, p)
		}
	}
	if _, err := NewLossyLink(LossParams{}); err != nil {
		t.Errorf("zero params should validate: %v", err)
	}
}

// TestSenderImpairEndToEnd drives the UDP path through an impaired sender
// and checks the receiver sees the configured loss while FEC claws back
// single-loss groups.
func TestSenderImpairEndToEnd(t *testing.T) {
	rx, err := NewReceiver("127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewSender(rx.Addr(), 40)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.EnableFEC(4); err != nil {
		t.Fatal(err)
	}
	link, err := NewLossyLink(LossParams{Seed: 11, Loss: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tx.Impair(link)

	const nFrames = 50
	in := audio.Render(audio.NewTone(440, 8000, 0.5, 0), nFrames*40)
	if err := tx.Send(in); err != nil {
		t.Fatal(err)
	}
	if err := tx.Flush(); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	if st.Dropped == 0 {
		t.Fatal("impaired sender dropped nothing at 10% loss over 62 datagrams")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		got, err := rx.Poll(20 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !got && rx.Buffered() >= nFrames-int(st.Dropped) {
			break
		}
	}
	dst := make([]float64, nFrames*40)
	mask := make([]bool, nFrames*40)
	real := rx.PopMask(dst, mask)
	if real == 0 {
		t.Fatal("nothing delivered through the impaired link")
	}
	// Every concealed sample must be masked false and zero.
	for i, m := range mask {
		if !m && dst[i] != 0 {
			t.Fatalf("concealed sample %d not zeroed: %g", i, dst[i])
		}
	}
	if real == len(dst) && st.Dropped > rx.Recovered() {
		t.Errorf("lost %d frames, FEC recovered %d, yet nothing was concealed",
			st.Dropped, rx.Recovered())
	}
}

// TestReceiverFrameObserverSkipsFECReconstructions drives the live
// binding's estimator feed over loopback: the observer fires once per
// direct data frame, with its relay timestamp, and never for a frame FEC
// reconstructed (it surfaces at the parity frame's arrival, which says
// nothing about the relay clock).
func TestReceiverFrameObserverSkipsFECReconstructions(t *testing.T) {
	rx, err := NewReceiver("127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	var seen []uint64
	rx.SetFrameObserver(func(ts uint64) { seen = append(seen, ts) })
	tx, err := NewSender(rx.Addr(), 40)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.EnableFEC(4); err != nil {
		t.Fatal(err)
	}
	// Slots count datagrams, parity included: slot 1 is data frame 1.
	link, err := NewLossyLink(LossParams{Outages: []Outage{{StartSlot: 1, DurationSlots: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	tx.Impair(link)
	const nFrames = 8
	if err := tx.Send(audio.Render(audio.NewTone(440, 8000, 0.5, 0), nFrames*40)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Flush(); err != nil {
		t.Fatal(err)
	}
	// 8 data + 2 parity datagrams were offered and one data frame dropped.
	for got := 0; got < 9; got++ {
		if _, err := rx.Poll(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if rx.Recovered() != 1 {
		t.Fatalf("FEC recovered %d frames, want the dropped one", rx.Recovered())
	}
	want := []uint64{0, 80, 120, 160, 200, 240, 280}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("observer saw timestamps %v, want %v (every direct data frame once, no reconstruction)", seen, want)
	}
}
