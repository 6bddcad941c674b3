// Edgeservice: the Figure 10(b) architectural variant — noise cancellation
// as an edge service. One DSP server process receives waveform streams
// from two ceiling relays over UDP, runs a LANC instance per user, and
// reports each user's cancellation. In a deployment the server would send
// anti-noise back over RF; here the acoustic legs are simulated locally so
// the example is self-contained on loopback.
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

// user is one served listener: a UDP receiver, a LANC instance, and the
// simulated acoustic leg from the relay's sound field to the user's ear.
type user struct {
	name     string
	rx       *mute.Receiver
	lanc     *mute.Canceller
	acoustic *dsp.DelayLine
	channel  *dsp.StreamConvolver
	sec      *dsp.StreamConvolver
	noisePow float64
	resPow   float64
	err      float64
}

func newUser(name string, lookahead int) (*user, error) {
	rx, err := mute.NewReceiver("127.0.0.1:0", 256)
	if err != nil {
		return nil, err
	}
	secPath := core.EarSecondaryPath()
	budget, err := mute.PlanBudget(lookahead, core.DefaultPipeline())
	if err != nil {
		return nil, err
	}
	lanc, err := mute.NewCanceller(mute.CancellerConfig{
		NonCausalTaps: budget.UsableTaps,
		CausalTaps:    64,
		Mu:            0.1,
		Normalized:    true,
		SecondaryPath: secPath,
	})
	if err != nil {
		return nil, err
	}
	delay, err := dsp.NewDelayLine(lookahead)
	if err != nil {
		return nil, err
	}
	return &user{
		name:     name,
		rx:       rx,
		lanc:     lanc,
		acoustic: delay,
		channel:  dsp.NewStreamConvolver([]float64{0.8, 0.3, 0.12, 0.05}),
		sec:      dsp.NewStreamConvolver(secPath),
	}, nil
}

// serve drains the user's stream for the given duration, running LANC.
func (u *user) serve(d time.Duration) {
	deadline := time.Now().Add(d)
	block := make([]float64, 80)
	for time.Now().Before(deadline) {
		for {
			got, _ := u.rx.Poll(time.Millisecond)
			if !got {
				break
			}
		}
		u.rx.Pop(block)
		for _, x := range block {
			u.lanc.Adapt(u.err)
			u.lanc.Push(x)
			a := u.lanc.AntiNoise()
			dSig := u.channel.Process(u.acoustic.Process(x))
			u.err = dSig + u.sec.Process(a)
			u.noisePow += dSig * dSig
			u.resPow += u.err * u.err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func main() {
	const fs = 8000.0
	users := make([]*user, 0, 2)
	for i, name := range []string{"alice", "bob"} {
		u, err := newUser(name, 48+16*i)
		if err != nil {
			log.Fatal(err)
		}
		users = append(users, u)
		fmt.Printf("edge server: serving %s on %s\n", name, u.rx.Addr())
	}

	// Two ceiling relays stream different ambient sounds to their users.
	sounds := []mute.Generator{
		mute.Babble(3, 3, fs, 0.8),
		mute.MachineHum(4, 150, fs, 0.5),
	}
	var wg sync.WaitGroup
	for i, u := range users {
		tx, err := mute.NewSender(u.rx.Addr(), 80)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(2)
		go func(gen mute.Generator, tx *mute.Sender) {
			defer wg.Done()
			defer tx.Close()
			for f := 0; f < 400; f++ { // 4 seconds of audio
				if err := tx.Send(audio.Render(gen, 80)); err != nil {
					log.Println("send:", err)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			tx.Flush()
		}(sounds[i], tx)
		go func(u *user) {
			defer wg.Done()
			u.serve(4500 * time.Millisecond)
		}(u)
	}
	wg.Wait()

	for _, u := range users {
		st := u.rx.Stats()
		fmt.Printf("%s: cancellation %.1f dB (%d frames, %d samples concealed)\n",
			u.name, dsp.DB(u.resPow/(u.noisePow+1e-12)), st.FramesReceived, st.SamplesConcealed)
		u.rx.Close()
	}
}
