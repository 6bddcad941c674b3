// Airport: the introduction's "napping at airports may be difficult due to
// continuous overhead announcements" scenario. A PA speaker near the gate
// plays chime-plus-announcement cycles while road traffic murmurs from the
// window side. The relay sits by the PA speaker (the dominant disturbance),
// and LANC's profile switching handles the announcement on/off cycles.
package main

import (
	"fmt"
	"log"

	"mute/internal/acoustics"
	"mute/pkg/mute"
)

func main() {
	const fs = 8000.0

	build := func() mute.Scene {
		pa := mute.Announcement(3, fs, 1.2)
		scene := mute.DefaultScene(pa) // PA at the "door" position, relay beside it
		scene.Sources = append(scene.Sources, mute.Source{
			Pos: acoustics.Point{X: 4.5, Y: 3.5, Z: 1.0}, // window side
			Gen: mute.Traffic(4, fs, 0.25, 15),
		})
		return scene
	}

	fmt.Println("Airport gate: PA announcements + window-side traffic")
	for _, profiling := range []bool{false, true} {
		p := mute.DefaultParams(build())
		p.Duration = 20
		p.Mu = 0.05
		p.Profiling = profiling
		r, err := mute.Run(p, mute.MUTEHollow)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := mute.Summarize(r)
		if err != nil {
			log.Fatal(err)
		}
		label := "single filter     "
		if profiling {
			label = "profile switching "
		}
		fmt.Printf("  %s %s", label, rep)
		if r.Switches > 0 {
			fmt.Printf("  (%d switches)", r.Switches)
		}
		fmt.Println()
	}
	fmt.Println("\nThe nap is saved without earplugs — the ear stays open.")
}
