package mute_test

import (
	"fmt"

	"mute/pkg/mute"
)

// The simplest end-to-end use: simulate the Figure 1 office and report how
// much quieter the open-ear MUTE device makes it.
func ExampleRun() {
	noise := mute.WhiteNoise(1, 8000, 0.5)
	params := mute.DefaultParams(mute.DefaultScene(noise))
	params.Duration = 2 // keep the example fast; use >= 8 s for real numbers

	result, err := mute.Run(params, mute.MUTEHollow)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	report, err := mute.Summarize(result)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("lookahead %.1f ms, N=%d non-causal taps\n",
		report.LookaheadMs, report.NonCausalTaps)
	// Output:
	// lookahead 8.8 ms, N=32 non-causal taps
}
