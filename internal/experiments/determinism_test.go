package experiments

import (
	"bytes"
	"context"
	"testing"
)

// renderSweep regenerates every experiment in All(), simulated points
// included, into one buffer: what `procbench -sim` prints.
func renderSweep(opt Options) []byte {
	var buf bytes.Buffer
	for _, e := range All() {
		for _, tb := range e.Run(context.Background(), opt) {
			tb.Render(&buf)
		}
	}
	return buf.Bytes()
}

// TestSweepWorkerCountInvariance is the sweep engine's determinism
// contract over the whole figure set: every experiment with simulated
// points renders byte-identically whether its cells run sequentially or
// fan out over a worker pool — the `-workers 1` == `-workers 4` guarantee
// behind `procbench -sim -workers`.
func TestSweepWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opt := Options{Sim: true, Scale: 50, SimPoints: 2, SimSeed: 5}
	opt.Workers = 1
	seq := renderSweep(opt)
	opt.Workers = 4
	par := renderSweep(opt)
	if !bytes.Equal(seq, par) {
		t.Fatalf("sweep output depends on worker count:\n-- workers=1 --\n%s\n-- workers=4 --\n%s", seq, par)
	}
	// And run-to-run: a second parallel pass must reproduce the first.
	if again := renderSweep(opt); !bytes.Equal(par, again) {
		t.Fatal("sweep output differs between two workers=4 runs")
	}
}
