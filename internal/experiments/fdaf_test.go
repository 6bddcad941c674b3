package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestFdafSweepDeterministic pins the FDAF sweep to its inputs: two runs
// encode to the same JSON, so no wall-clock quantity leaks into the
// figure.
func TestFdafSweepDeterministic(t *testing.T) {
	var out [2][]byte
	for i := range out {
		fig, err := FdafSweep(Config{Duration: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(fig); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Errorf("two FDAF sweeps differ:\n%s\n%s", out[0], out[1])
	}
}
