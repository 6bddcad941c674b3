// Edgeservice: the Figure 10(b) architectural variant — noise cancellation
// as an edge service. One DSP server process receives waveform streams
// from two ceiling relays over UDP, runs one cancellation pipeline per
// user, and reports each user's cancellation. In a deployment the server
// would send anti-noise back over RF; here the acoustic legs are simulated
// locally so the example is self-contained on loopback.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/pkg/mute"
)

// frame is the relay's frame size and the server's processing block.
const frame = 80

// user is one served listener: a UDP receiver and the pipeline that pulls
// from it, with the acoustic leg from the relay's sound field to the
// user's ear derived from the received reference.
type user struct {
	name string
	rx   *mute.Receiver
	pl   *mute.Pipeline
}

func newUser(name string, lookahead int, fs float64) (*user, error) {
	rx, err := mute.NewReceiver("127.0.0.1:0", 256)
	if err != nil {
		return nil, err
	}
	delay, err := dsp.NewDelayLine(lookahead)
	if err != nil {
		return nil, err
	}
	secPath := core.EarSecondaryPath()
	// The simulated ear's chain carries no device latency, so no pipeline
	// is debited (see core.EarSecondaryPath).
	pl, err := mute.BuildPipeline(mute.PipelineConfig{
		SampleRate: fs,
		Lookahead:  lookahead,
		Canceller: mute.PipelineCancellerParams{
			CausalTaps:    64,
			Mu:            0.1,
			SecondaryPath: secPath,
		},
		Reference: &mute.ReceiverSource{Buf: rx},
		Ambient: &mute.DerivedAmbient{
			Delay:   delay,
			Channel: dsp.NewStreamConvolver([]float64{0.8, 0.3, 0.12, 0.05}),
		},
		SecondaryIR: secPath,
	})
	if err != nil {
		rx.Close()
		return nil, err
	}
	return &user{name: name, rx: rx, pl: pl}, nil
}

// serve drains the user's stream for the given duration, one block per
// 10 ms tick.
func (u *user) serve(d time.Duration) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for {
			got, _ := u.rx.Poll(time.Millisecond)
			if !got {
				break
			}
		}
		if _, err := u.pl.ProcessBlock(frame); err != nil {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func main() {
	const fs = 8000.0
	users := make([]*user, 0, 2)
	for i, name := range []string{"alice", "bob"} {
		u, err := newUser(name, 48+16*i, fs)
		if err != nil {
			log.Fatal(err)
		}
		users = append(users, u)
		fmt.Printf("edge server: serving %s on %s (N=%d non-causal taps)\n", name, u.rx.Addr(), u.pl.NonCausalTaps)
	}

	// Two ceiling relays stream different ambient sounds to their users.
	sounds := []mute.Generator{
		mute.Babble(3, 3, fs, 0.8),
		mute.MachineHum(4, 150, fs, 0.5),
	}
	var wg sync.WaitGroup
	for i, u := range users {
		tx, err := mute.NewSender(u.rx.Addr(), frame)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(2)
		go func(gen mute.Generator, tx *mute.Sender) {
			defer wg.Done()
			defer tx.Close()
			for f := 0; f < 400; f++ { // 4 seconds of audio
				if err := tx.Send(audio.Render(gen, frame)); err != nil {
					log.Println("send:", err)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			tx.Flush()
		}(sounds[i], tx)
		go func(u *user) {
			defer wg.Done()
			if err := u.serve(4500 * time.Millisecond); err != nil {
				log.Println("serve:", err)
			}
		}(u)
	}
	wg.Wait()

	for _, u := range users {
		st := u.rx.Stats()
		noisePow, resPow := u.pl.Meters()
		fmt.Printf("%s: cancellation %.1f dB (%d frames, %d samples concealed)\n",
			u.name, dsp.DB(resPow/(noisePow+1e-12)), st.FramesReceived, st.SamplesConcealed)
		u.pl.Close() // closes the receiver
	}
}
