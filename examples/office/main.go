// Office: the paper's motivating scenario in full. Alice's office has a
// corridor talker who speaks in sentences with pauses (the hard,
// intermittent case) over a constant ventilation hum. The example compares
// every scheme and shows LANC's predictive profile switching at work.
package main

import (
	"fmt"
	"log"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/pkg/mute"
)

func main() {
	const fs = 8000.0

	build := func() mute.Scene {
		// The corridor talker is the dominant source, at the door.
		talker := audio.NewSentenceSpeech(7, audio.MaleVoice, fs, 1.5)
		scene := mute.DefaultScene(talker)
		// Ventilation hum from the ceiling vent mid-room.
		scene.Sources = append(scene.Sources, mute.Source{
			Pos: acoustics.Point{X: 2.5, Y: 3.4, Z: 2.8},
			Gen: audio.NewMachineHum(8, 120, fs, 0.1, 6),
		})
		return scene
	}

	fmt.Println("Alice's office: corridor speech + ventilation hum")
	for _, scheme := range []mute.Scheme{
		mute.MUTEHollow, mute.MUTEPassive, mute.BoseOverall, mute.PassiveOnly,
	} {
		p := mute.DefaultParams(build())
		p.Duration = 12
		p.Mu = 0.02
		if scheme == mute.MUTEHollow || scheme == mute.MUTEPassive {
			p.Profiling = true
		}
		r, err := mute.Run(p, scheme)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := mute.Summarize(r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", rep)
		if r.Switches > 0 {
			fmt.Printf("    profile switches: %d (LANC foresaw speech transitions in the lookahead buffer)\n", r.Switches)
		}
	}

	fmt.Println("\nMUTE cancels the corridor conversation without covering Alice's ears.")
}
