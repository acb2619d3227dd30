package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
}

// TestMapOrderIsDeterministic is the reduction contract: whatever the
// worker count, results land at their input index, so downstream
// rendering is byte-identical to the sequential run.
func TestMapOrderIsDeterministic(t *testing.T) {
	const n = 100
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("cell-%03d", i)
	}
	for _, workers := range []int{1, 2, 4, 16, 200} {
		got, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (string, error) {
			// Perturb completion order: early cells finish last.
			if i < 10 {
				time.Sleep(time.Duration(10-i) * time.Millisecond)
			}
			return fmt.Sprintf("cell-%03d", i), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachRunsEveryCellOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	err := ForEach(context.Background(), 8, n, func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestErrorIsLowestIndexed: the reported error must not depend on
// scheduling, so the lowest-indexed failure wins.
func TestErrorIsLowestIndexed(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4, 32} {
		err := ForEach(context.Background(), workers, 64, func(_ context.Context, i int) error {
			switch i {
			case 3:
				time.Sleep(5 * time.Millisecond) // let higher cells fail first
				return errLow
			case 40, 50, 60:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
}

func TestErrorStopsNewCells(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	err := ForEach(context.Background(), 2, 10_000, func(_ context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s := started.Load(); s > 100 {
		t.Fatalf("%d cells started after failure; pool did not stop", s)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		err := ForEach(ctx, workers, 10, func(context.Context, int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if workers == 1 && ran {
			t.Fatal("sequential path ran a cell under a cancelled context")
		}
	}
}

func TestMapPartialResultsSurviveError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 1, 5, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i * 10, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if out[0] != 0 || out[1] != 10 || out[2] != 20 {
		t.Fatalf("completed cells lost: %v", out)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	out, err := Map(context.Background(), 8, 1, func(_ context.Context, i int) (int, error) { return 7, nil })
	if err != nil || len(out) != 1 || out[0] != 7 {
		t.Fatalf("n=1: %v %v", out, err)
	}
}
