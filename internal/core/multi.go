package core

import "fmt"

// MultiLANC extends LANC to multiple reference microphones — the paper's
// multi-source future work (Section 6): "with multiple noise sources, the
// problem ... requir[es] either multiple microphones (one for each noise
// channel) or source separation algorithms". Each wireless relay
// contributes one reference stream with its own lookahead; the anti-noise
// is the sum of one adaptive filter per reference, all driven by the shared
// error microphone. The gradient of the summed output separates per
// reference, so each bank adapts exactly as a single LANC would.
type MultiLANC struct {
	banks []*LANC
}

// NewMulti creates a multi-reference canceller with one filter bank per
// configuration. All banks share the error signal; they may differ in tap
// counts (e.g. per-relay lookahead budgets). Profiling, if enabled, runs
// independently per bank.
func NewMulti(cfgs []Config) (*MultiLANC, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: multi-reference LANC needs at least one reference")
	}
	m := &MultiLANC{}
	for i, cfg := range cfgs {
		l, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: reference %d: %w", i, err)
		}
		m.banks = append(m.banks, l)
	}
	return m, nil
}

// Push feeds the newest sample from every reference stream, one per bank.
func (m *MultiLANC) Push(xs []float64) error {
	if len(xs) != len(m.banks) {
		return fmt.Errorf("core: got %d reference samples, want %d", len(xs), len(m.banks))
	}
	for i, x := range xs {
		m.banks[i].Push(x)
	}
	return nil
}

// AntiNoise returns the summed anti-noise of all banks.
func (m *MultiLANC) AntiNoise() float64 {
	var a float64
	for _, b := range m.banks {
		a += b.AntiNoise()
	}
	return a
}

// Adapt applies the shared residual error to every bank.
func (m *MultiLANC) Adapt(e float64) {
	for _, b := range m.banks {
		b.Adapt(e)
	}
}
