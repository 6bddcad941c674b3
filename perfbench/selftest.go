package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// runSelfTest is the fast check that the benchmark itself is sound, run
// from the repository root:
//
//   - BENCHMARK.json lists exactly the metrics this program reports, with
//     the same units and directions;
//   - every workload, at tiny sizes, passes its correctness checks and
//     reports every metric of both sections;
//   - at the full 12 s, seed 1, the MUTE_Hollow time-domain and FDAF32
//     cells reproduce the values checked in to BENCH_figs.json.
func runSelfTest() error {
	if err := checkManifest("BENCHMARK.json"); err != nil {
		return err
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := execute(w, runOpts{seed: 3, seconds: 0.2, trace: traced, tiny: true})
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s (trace %v): checks failed", w.name, traced)
			}
			section := endToEnd
			if traced {
				section = perLayer
			}
			if len(res.Metrics) != len(section) {
				return fmt.Errorf("%s (trace %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(section))
			}
			for _, m := range section {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					return fmt.Errorf("%s (trace %v): metric %s missing or not in %s", w.name, traced, m.name, m.unit)
				}
			}
		}
	}
	return checkFigs("BENCH_figs.json")
}

type manifestMetric struct{ Name, Unit, Better string }

// checkManifest compares BENCHMARK.json's metric lists with the catalogue.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var man struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []manifestMetric        `json:"end_to_end"`
		PerLayer  []manifestMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(man.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, the benchmark runs %d", path, len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("%s workload %d is %q, want %q", path, i, w.Name, workloads[i].name)
		}
	}
	for _, sec := range []struct {
		name string
		got  []manifestMetric
		want []metricDef
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		if len(sec.got) != len(sec.want) {
			return fmt.Errorf("%s %s has %d metrics, want %d", path, sec.name, len(sec.got), len(sec.want))
		}
		for i := range sec.want {
			g, w := sec.got[i], sec.want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				return fmt.Errorf("%s %s[%d] = %+v, want %+v", path, sec.name, i, sec.got[i], sec.want[i])
			}
		}
	}
	return nil
}

// checkFigs reruns the figs suite's two MUTE_Hollow cells and compares
// their band cancellation with the checked-in values.
func checkFigs(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var figs struct {
		Entries []struct {
			Name  string
			Value float64
		}
	}
	if err := json.Unmarshal(raw, &figs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := map[string]float64{}
	for _, e := range figs.Entries {
		want[e.Name] = e.Value
	}
	c := simCells{seed: 1, dur: simSeconds}
	for _, cell := range []struct {
		name string
		run  func() (cellResult, error)
	}{
		{"mute_hollow.td.db", c.td},
		{"mute_hollow.fdaf32.db", func() (cellResult, error) { return c.fdaf32(nil) }},
	} {
		w, ok := want[cell.name]
		if !ok {
			return fmt.Errorf("%s has no %s entry", path, cell.name)
		}
		got, err := cell.run()
		if err != nil {
			return err
		}
		if math.Abs(got.dbs[0]-w) > 1e-9 {
			return fmt.Errorf("%s: %.12f dB, %s has %.12f dB", cell.name, got.dbs[0], path, w)
		}
		fmt.Printf("%s reproduces %s: %.6f dB\n", cell.name, path, got.dbs[0])
	}
	return nil
}
