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

// PlanBudget splits the available lookahead between the converter pipeline
// (Equation 3) and LANC's non-causal taps.
func ExamplePlanBudget() {
	budget, err := mute.PlanBudget(24, mute.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("deadline met: %v, non-causal taps: %d\n", budget.DeadlineMet, budget.UsableTaps)
	// Output:
	// deadline met: true, non-causal taps: 20
}

// NewCanceller embeds LANC in a custom sample loop: push the wirelessly
// received reference, play the anti-noise, feed back the measured residual.
func ExampleNewCanceller() {
	lanc, err := mute.NewCanceller(mute.CancellerConfig{
		NonCausalTaps: 8,
		CausalTaps:    16,
		Mu:            0.2,
		Normalized:    true,
		SecondaryPath: []float64{0.8, 0.2},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	residual := 0.0
	for i := 0; i < 3; i++ {
		lanc.Adapt(residual)
		lanc.Push(0.5)       // newest forwarded sample x(t+N)
		_ = lanc.AntiNoise() // α(t), played at the speaker
		residual = 0.01      // measured at the error microphone
	}
	fmt.Println("taps:", lanc.NonCausalTaps(), "+", lanc.CausalTaps())
	// Output:
	// taps: 8 + 16
}
