package experiments

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"dbproc/internal/parallel"
)

// ParallelBenchReport is the shape of BENCH_parallel.json: wall-clock
// for regenerating every figure and table (simulated points included)
// with one worker versus a full pool, and a byte-identity verdict for
// the two outputs. MeasuredSpeedup can only reach min(Cores, Workers).
type ParallelBenchReport struct {
	// Cores is runtime.NumCPU() — the concurrency the measured columns
	// could actually use.
	Cores int `json:"cores"`
	// Workers is the pool width of the parallel pass.
	Workers int `json:"workers"`
	// Experiments counts the figures/tables regenerated per pass.
	Experiments int `json:"experiments"`
	// Scale and Seed are the simulation options both passes shared.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// SequentialWallMs and ParallelWallMs time the two full regenerations.
	SequentialWallMs float64 `json:"sequential_wall_ms"`
	ParallelWallMs   float64 `json:"parallel_wall_ms"`
	// MeasuredSpeedup is SequentialWallMs / ParallelWallMs on this box.
	MeasuredSpeedup float64 `json:"measured_speedup"`
	// OutputIdentical asserts the determinism contract: both passes
	// rendered byte-identical tables.
	OutputIdentical bool `json:"output_identical"`
}

// renderAll regenerates every experiment into one buffer, timing the
// wall clock.
func renderAll(ctx context.Context, opt Options) (time.Duration, []byte, int) {
	var buf bytes.Buffer
	all := All()
	start := time.Now()
	for _, e := range all {
		for _, tb := range e.Run(ctx, opt) {
			tb.Render(&buf)
		}
	}
	return time.Since(start), buf.Bytes(), len(all)
}

// ParallelBench regenerates the full figure set twice — Workers=1, then
// Workers=opt.Workers (default: one per CPU) — and reports wall-clock
// and byte-identity. It is the harness behind
// `procbench -parallel-json BENCH_parallel.json`.
func ParallelBench(ctx context.Context, opt Options) ParallelBenchReport {
	if !opt.Sim {
		opt.Sim = true // wall-clock is all simulation; analytic-only is microseconds
	}
	workers := parallel.Workers(opt.Workers)

	seqOpt := opt
	seqOpt.Workers = 1
	seqWall, seqOut, nExp := renderAll(ctx, seqOpt)

	parOpt := opt
	parOpt.Workers = workers
	parWall, parOut, _ := renderAll(ctx, parOpt)

	rep := ParallelBenchReport{
		Cores:            runtime.NumCPU(),
		Workers:          workers,
		Experiments:      nExp,
		Scale:            opt.Scale,
		Seed:             opt.SimSeed,
		SequentialWallMs: float64(seqWall) / float64(time.Millisecond),
		ParallelWallMs:   float64(parWall) / float64(time.Millisecond),
		OutputIdentical:  bytes.Equal(seqOut, parOut),
	}
	if parWall > 0 {
		rep.MeasuredSpeedup = float64(seqWall) / float64(parWall)
	}
	return rep
}
