// Command mutefleet is the fleet load generator: it drives N simulated
// users — each a seeded relay with its own loss pattern, outages, and
// optional oscillator skew — against one in-process session server, and
// reports the capacity numbers that matter for serving at scale:
// processing cost per session-block, realtime sessions per core, and
// (in paced mode) the block-deadline miss rate over the real UDP
// transport.
//
// Paced mode (the default) runs the full path: every user's frames are
// enveloped with their session id, written to one UDP socket, read back
// by the server's socket, demultiplexed into per-session jitter buffers,
// and processed at integer-exact block deadlines:
//
//	mutefleet -sessions 500 -duration 5s
//
// Throughput mode skips the transport and the pacing and runs ticks back
// to back — the raw sessions-per-core measurement:
//
//	mutefleet -sessions 64 -throughput -blocks 500
//
// A smoke invocation for CI scale testing:
//
//	mutefleet -sessions 1000 -duration 2s
//
// Chaos mode runs the deterministic lifecycle torture schedule instead of
// a load measurement: seeded churn storms, malformed floods, a poisoned
// session, an overload spike, and a mid-run drain/adopt handoff, audited
// against the fleet's invariants (exit 1 on any violation):
//
//	mutefleet -chaos -chaos-blocks 256 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mute/internal/fleet"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

func main() {
	var (
		sessions   = flag.Int("sessions", 64, "concurrent simulated users")
		duration   = flag.Duration("duration", 5*time.Second, "paced run length (e.g. 2s, 500ms)")
		throughput = flag.Bool("throughput", false, "unpaced mode: run ticks back to back, no transport")
		blocks     = flag.Int("blocks", 200, "ticks to run in throughput mode")
		frame      = flag.Int("frame", 80, "samples per frame / processing block")
		rate       = flag.Float64("rate", 8000, "sample rate in Hz")
		causal     = flag.Int("causal-taps", fleet.DefaultProfile().CausalTaps, "LANC causal taps per session")
		noncausal  = flag.Int("max-noncausal", fleet.DefaultProfile().MaxNonCausalTaps, "cap on planned non-causal taps")
		fdafBlock  = flag.Int("fdaf-block", 0, "run sessions on the FDAF path with this block size (0 = time domain)")
		shards     = flag.Int("shards", 1, "ProcessTick goroutine fan-out")
		loss       = flag.Float64("loss", 0.02, "per-user frame loss probability")
		burst      = flag.Float64("burst", 2, "mean loss burst length (Gilbert–Elliott when > 1)")
		reorder    = flag.Float64("reorder", 0.02, "per-user reorder probability")
		dup        = flag.Float64("dup", 0.01, "per-user duplicate probability")
		skewPPM    = flag.Float64("skew-ppm", 80, "oscillator skew applied to every third user")
		jsonOut    = flag.String("json", "", "write the run summary as JSON to this file")
		showTelem  = flag.Bool("telemetry", false, "print the merged fleet telemetry snapshot")

		chaos       = flag.Bool("chaos", false, "run the deterministic chaos schedule and audit lifecycle invariants")
		chaosBlocks = flag.Int("chaos-blocks", 256, "chaos mode: total ticks across both servers")
		chaosPeers  = flag.Int("chaos-peers", 24, "chaos mode: long-lived background sessions")
		seed        = flag.Uint64("seed", 1, "chaos mode: impairment seed (replays are exact)")
	)
	flag.Parse()

	if *chaos {
		runChaos(fleet.ChaosConfig{
			Blocks: *chaosBlocks,
			Peers:  *chaosPeers,
			Seed:   *seed,
			Shards: *shards,
		}, *jsonOut)
		return
	}

	cfg := fleet.LoadConfig{
		Sessions:   *sessions,
		Duration:   *duration,
		Blocks:     *blocks,
		Throughput: *throughput,
		Profile: fleet.Profile{
			SampleRate:       *rate,
			FrameSamples:     *frame,
			CausalTaps:       *causal,
			MaxNonCausalTaps: *noncausal,
			FDAFBlock:        *fdafBlock,
		},
		Faults: stream.LossParams{
			Seed: 1, Loss: *loss, MeanBurst: *burst,
			Reorder: *reorder, Duplicate: *dup,
		},
		SkewPPM: *skewPPM,
		Shards:  *shards,
	}
	// The telemetry snapshot needs the server alive after the run; RunLoad
	// owns the server, so merged metrics ride back in the result. For the
	// -telemetry view, run the merge through a shared registry.
	var merged *telemetry.Registry
	if *showTelem {
		merged = telemetry.NewRegistry()
	}
	res, err := fleet.RunLoadInto(cfg, merged)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutefleet:", err)
		os.Exit(1)
	}

	mode := "paced"
	if *throughput {
		mode = "throughput"
	}
	fmt.Printf("mutefleet: %s run, %d sessions, %d blocks (%d session-blocks) in %v\n",
		mode, res.Sessions, res.Blocks, res.SessionBlocks, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("mutefleet: %d frames ingested, pool %d fresh / %d gets / %d puts\n",
		res.FramesIn, res.PoolNews, res.PoolGets, res.PoolPuts)
	fmt.Printf("mutefleet: %.0f ns per session-block → %.0f realtime sessions/core\n",
		res.SessionBlockNS, res.SessionsPerCore)
	if !*throughput {
		fmt.Printf("mutefleet: %d deadline misses (%.3f%% of session-blocks), p99 tick lateness %v\n",
			res.DeadlineMisses, 100*res.MissRate, time.Duration(res.P99LatenessNS).Round(time.Microsecond))
	}
	if merged != nil {
		fmt.Print(merged.Snapshot().Text())
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mutefleet:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mutefleet:", err)
			os.Exit(1)
		}
		fmt.Printf("mutefleet: wrote %s\n", *jsonOut)
	}
}

// runChaos executes the chaos schedule and reports the audit; any
// invariant violation exits nonzero so CI smoke steps fail loudly.
func runChaos(cfg fleet.ChaosConfig, jsonOut string) {
	res, err := fleet.RunChaos(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutefleet:", err)
		os.Exit(1)
	}
	fmt.Printf("mutefleet: chaos run, %d blocks, %d peers, peak pressure %s\n",
		res.Blocks, res.Peers, res.MaxPressure)
	fmt.Printf("mutefleet: %d churned, %d quarantined, %d shed, %d drained, %d adopted\n",
		res.Churned, res.Quarantined, res.Shed, res.Drained, res.Adopted)
	fmt.Printf("mutefleet: %d frames in, %d unknown-session, %d bad envelopes, %d refused opens\n",
		res.FramesIn, res.Unknown, res.BadEnvelope, res.Refused)
	if jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mutefleet:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mutefleet:", err)
			os.Exit(1)
		}
		fmt.Printf("mutefleet: wrote %s\n", jsonOut)
	}
	if !res.Ok() {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "mutefleet: INVARIANT VIOLATED:", v)
		}
		os.Exit(1)
	}
	fmt.Println("mutefleet: all lifecycle invariants held")
}
