// Command perfbench is the repository's end-to-end benchmark: it drives
// the session server (internal/fleet), the transport (internal/stream),
// the simulator (internal/sim) and the figure experiments
// (internal/experiments) through their public APIs on a named workload,
// checks that the outputs are correct and deterministic, and prints one
// JSON result line.
//
//	perfbench --workload serve-td --seed 1 --seconds 30 --trace 0
//	perfbench --selftest
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. See README.md for the
// workloads, the metric map and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is the origin of the first set-up round's clock.
var processStart = time.Now()

// runOpts is one invocation's workload, seed, window and tracing mode.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	// tiny shrinks every size for the self-test.
	tiny bool
}

// report is what a workload hands back: the metrics of the requested
// section, operation accounting, human-readable detail lines and any
// failed correctness check.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	lines     []string
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

type workload struct {
	name string
	run  func(runOpts) (*report, error)
}

var workloads = []workload{
	{"serve-td", func(o runOpts) (*report, error) { return runFleet(serveTD, o) }},
	{"churn-fdaf", func(o runOpts) (*report, error) { return runFleet(churnFDAF, o) }},
	{"eval-sim", runEvalSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload: serve-td, churn-fdaf or eval-sim")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	selftest := flag.Bool("selftest", false, "run the fast self-test instead of a workload")
	flag.Parse()

	if *selftest {
		if err := runSelfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-test failed:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: self-test passed")
		return
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-td|churn-fdaf|eval-sim, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := execute(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(line, '\n'))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// execute runs one workload between two host calibrations, prints its
// detail lines and converts it to the result line. Every metric of the
// requested section must be present and finite.
func execute(w workload, o runOpts) (*jsonResult, error) {
	calBefore := calibrateNS()
	rep, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	calAfter := calibrateNS()
	if o.trace {
		rep.set("host.calibrate_ns", calBefore)
		rep.set("host.calibrate_after_ns", calAfter)
	}
	rep.note("host.calibrate_ns before %.1f after %.1f (fixed 4096-term dot product)", calBefore, calAfter)

	section := endToEnd
	if o.trace {
		section = perLayer
	}
	res := &jsonResult{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range section {
		v, ok := rep.metrics[m.name]
		switch {
		case !ok:
			rep.fail("metric %s missing", m.name)
			continue
		case math.IsNaN(v) || math.IsInf(v, 0):
			rep.fail("metric %s is not finite (%v)", m.name, v)
			continue
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		rep.fail("no operation attempted")
		res.Attempted = 1
	}
	res.Correct = len(rep.problems) == 0 && rep.failed == 0

	fmt.Printf("workload %s seed %d seconds %g trace %v\n", w.name, o.seed, o.seconds, o.trace)
	for _, l := range rep.lines {
		fmt.Println("  " + l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	fmt.Printf("  attempted %d failed %d error_ratio %g\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	for _, p := range rep.problems {
		fmt.Println("  CHECK FAILED: " + p)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return res, nil
}

// calSink keeps the calibration kernel's result live.
var calSink float64

// calibrateNS times a fixed scalar kernel — a 4096-term dot product — and
// returns the best of several batch means in ns per kernel. Taken before
// and after every run, it shows a host speed phase next to the numbers it
// distorts.
func calibrateNS() float64 {
	a, b := make([]float64, 4096), make([]float64, 4096)
	for i := range a {
		a[i] = float64(i%97) * 0.01
		b[i] = float64(i%89) * 0.02
	}
	const iters = 2000
	best := math.Inf(1)
	for batch := 0; batch < 8; batch++ {
		start := time.Now()
		var acc float64
		for it := 0; it < iters; it++ {
			for i := range a {
				acc += a[i] * b[i]
			}
		}
		calSink += acc
		if ns := float64(time.Since(start).Nanoseconds()) / iters; ns < best {
			best = ns
		}
	}
	return best
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// refNominalNS is the reference pass time, in ns, that the reported
// timings are scaled to: about what this kernel takes on an uncontended
// 2-vCPU KVM guest (Intel Xeon, 2.1 GHz). See README.md, "Noise".
const refNominalNS = 2000.0

// refA and refB are the reference kernel's fixed operands.
var refA, refB = func() ([]float64, []float64) {
	a, b := make([]float64, 4096), make([]float64, 4096)
	for i := range a {
		a[i] = float64(i%97) * 0.01
		b[i] = float64(i%89) * 0.02
	}
	return a, b
}()

// referencePass times a fixed throughput-bound kernel — a 4096-term dot
// product over four independent accumulators — and returns ns per pass:
// the best of three batches of four passes, about 25–50 µs in all, so a
// batch the scheduler interrupts does not count. Timed next to every
// step, it reads how fast the host runs this process at that moment: the
// host's neighbours slow the kernel and the program's steps alike.
func referencePass() float64 {
	const iters = 4
	best := math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		start := time.Now()
		var a0, a1, a2, a3 float64
		for it := 0; it < iters; it++ {
			for i := 0; i < len(refA); i += 4 {
				a0 += refA[i] * refB[i]
				a1 += refA[i+1] * refB[i+1]
				a2 += refA[i+2] * refB[i+2]
				a3 += refA[i+3] * refB[i+3]
			}
		}
		calSink += a0 + a1 + a2 + a3
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/iters)
	}
	return best
}

// normalize scales a wall time to a host that runs the reference pass in
// refNominalNS, given the passes just before and just after it.
func normalize(wall, refBefore, refAfter float64) float64 {
	return wall / ((refBefore + refAfter) / 2) * refNominalNS
}

// normalized records steps bracketed by reference passes.
type normalized struct {
	wall, ref, norm []float64
}

func (n *normalized) add(wall, refBefore, refAfter float64) {
	n.wall = append(n.wall, wall)
	n.ref = append(n.ref, (refBefore+refAfter)/2)
	n.norm = append(n.norm, normalize(wall, refBefore, refAfter))
}

// refClock times a stretch of work in laps, each normalized to the
// reference passes that bracket it; the passes themselves are not timed.
type refClock struct {
	t0         time.Time
	ref        float64
	wall, norm time.Duration
}

// newRefClock starts a clock whose first lap began at start, or now when
// start is zero.
func newRefClock(start time.Time) *refClock {
	c := &refClock{ref: referencePass(), t0: start}
	if start.IsZero() {
		c.t0 = time.Now()
	}
	return c
}

// lap ends the current lap and starts the next.
func (c *refClock) lap() {
	d := time.Since(c.t0)
	r := referencePass()
	c.wall += d
	c.norm += time.Duration(normalize(float64(d), c.ref, r))
	c.ref = r
	c.t0 = time.Now()
}

// trimmedMean is the mean of xs without the fraction trim of values at
// each end (xs is not modified).
func trimmedMean(xs []float64, trim float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	return sum(s[k:len(s)-k]) / float64(len(s)-2*k)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, or 0 when the layer did no work (den == 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
