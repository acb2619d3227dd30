package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A stepper with a known op stream: every op takes opTime, every fifth
// is an update, each costs 2 simulated ms.
func fixedStepper(opTime time.Duration, drainAfter int) stepper {
	n := 0
	return func(context.Context) (opInfo, error) {
		if drainAfter > 0 && n >= drainAfter {
			return opInfo{Done: true}, nil
		}
		n++
		time.Sleep(opTime)
		return opInfo{Update: n%5 == 0, CostMs: 2}, nil
	}
}

func TestWarmUpIsExecutedNotSampled(t *testing.T) {
	plan := loopPlan{Warm: 100 * time.Millisecond, Measure: 200 * time.Millisecond}
	begin := time.Now()
	runs := runClients(context.Background(), []stepper{fixedStepper(2*time.Millisecond, 0), fixedStepper(2*time.Millisecond, 0)}, plan)
	for i, r := range runs {
		sampled := len(r.Access) + len(r.Update)
		if sampled == 0 || sampled >= r.Ops {
			t.Fatalf("client %d: %d sampled of %d executed; warm-up ops must run and stay out of the sample", i, sampled, r.Ops)
		}
		// Roughly a third of the ops fall in the warm-up third of the run.
		if warm := r.Ops - sampled; warm < r.Ops/6 || warm > r.Ops/2 {
			t.Errorf("client %d: %d of %d ops unsampled, want about a third", i, warm, r.Ops)
		}
		if r.Start.Before(begin.Add(plan.Warm)) {
			t.Errorf("client %d: sampled window opened %v after the start, before the %v warm-up ended", i, r.Start.Sub(begin), plan.Warm)
		}
		if r.Queries+r.Updates != r.Ops || r.SimMs != 2*float64(r.Ops) {
			t.Errorf("client %d: counts %d+%d, sim %.0f ms for %d ops", i, r.Queries, r.Updates, r.SimMs, r.Ops)
		}
		for _, us := range r.Access {
			if us < 2000 {
				t.Fatalf("client %d: a 2ms op was sampled at %.0f us", i, us)
			}
		}
	}
	w := foldRuns(runs)
	if w.Ops != len(w.Access)+len(w.Update) || w.WallS < 0.15 || w.WallS > 0.4 {
		t.Errorf("window: %d ops in %.3fs, want the 0.2s measured window", w.Ops, w.WallS)
	}
}

func TestCheckpointReadAtFixedOpCount(t *testing.T) {
	reads := 0
	plan := loopPlan{Measure: 100 * time.Millisecond, Checkpoint: 10,
		RSS: func() (float64, error) { reads++; return 123, nil }}
	runs := runClients(context.Background(), []stepper{fixedStepper(time.Millisecond, 0)}, plan)
	r := runs[0]
	if !r.CpReached || r.CpSimMs != 20 || r.CpQueries != 8 || r.CpRSSMB != 123 || reads != 1 {
		t.Errorf("checkpoint after 10 ops: reached=%v sim=%.0f queries=%d rss=%.0f reads=%d; want true 20 8 123 1",
			r.CpReached, r.CpSimMs, r.CpQueries, r.CpRSSMB, reads)
	}
	if r.Ops <= 10 {
		t.Errorf("the run stopped at the checkpoint (%d ops)", r.Ops)
	}
}

func TestDrainedStreamAndFailedOpEndTheClient(t *testing.T) {
	plan := loopPlan{Measure: time.Second, Checkpoint: 1000}
	start := time.Now()
	boom := errors.New("boom")
	failing := func(context.Context) (opInfo, error) { return opInfo{}, boom }
	runs := runClients(context.Background(), []stepper{fixedStepper(time.Millisecond, 7), failing}, plan)
	if time.Since(start) > 500*time.Millisecond {
		t.Errorf("clients with nothing left to do kept the run open for %v", time.Since(start))
	}
	if r := runs[0]; r.Ops != 7 || r.Failed != 0 || r.CpReached {
		t.Errorf("drained client: ops=%d failed=%d checkpoint=%v, want 7 0 false", r.Ops, r.Failed, r.CpReached)
	}
	if r := runs[1]; r.Ops != 0 || r.Failed != 1 || !errors.Is(r.Err, boom) {
		t.Errorf("failing client: ops=%d failed=%d err=%v, want 0 1 boom", r.Ops, r.Failed, r.Err)
	}
	if w := foldRuns(runs); w.All.Failed != 1 || w.All.CpReached || !errors.Is(w.All.Err, boom) {
		t.Errorf("fold: failed=%d reached=%v err=%v", w.All.Failed, w.All.CpReached, w.All.Err)
	}
}
