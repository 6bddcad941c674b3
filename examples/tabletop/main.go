// Tabletop: the Figure 10(a) architectural variant. The user carries a
// personal tabletop relay that hosts the reference microphone AND the DSP;
// the ear device becomes a thin client that plays the received anti-noise
// and returns its error-microphone signal. The control loop (anti-noise
// downlink + error uplink) costs latency, which the lookahead budget must
// absorb — this example sweeps that cost. Both variants are settings of
// the one simulated run: Params.ControlLoopDelaySamples and
// Scene.RelayOnSource.
package main

import (
	"fmt"
	"log"

	"mute/pkg/mute"
)

func main() {
	const fs = 8000.0
	fmt.Println("Personal tabletop relay (Figure 10(a)): control-loop latency sweep")
	for _, loopSamples := range []int{0, 8, 48, 120} {
		p := mute.DefaultParams(mute.DefaultScene(mute.WhiteNoise(1, fs, 0.5)))
		p.Duration = 8
		p.ControlLoopDelaySamples = loopSamples
		report(fmt.Sprintf("  loop %5.1f ms: ", float64(loopSamples)/fs*1000), p)
	}

	// Smart noise (Figure 10(c)): the relay rides on the noise source.
	p := mute.DefaultParams(mute.DefaultScene(mute.WhiteNoise(1, fs, 0.5)))
	p.Duration = 8
	p.Scene = p.Scene.RelayOnSource()
	report("\nSmart noise (relay on the source): ", p)
	fmt.Println("maximal lookahead — the best case the architecture allows")
}

// report runs MUTE_Hollow and prints its one-line summary after label.
func report(label string, p mute.Params) {
	r, err := mute.Run(p, mute.MUTEHollow)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mute.Summarize(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s%s\n", label, rep)
}
