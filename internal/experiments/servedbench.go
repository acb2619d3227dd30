package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dbproc/client"
	"dbproc/internal/metric"
	"dbproc/internal/wire"
)

// ServedResult is one workload measured through procserved: the same
// aggregate quantities an in-process engine run reports, but produced by
// real wire round-trips.
type ServedResult struct {
	Clients int
	Ops     int
	Queries int
	Updates int
	Tuples  int
	// WallSec is client-side elapsed wall-clock over the whole drive;
	// ThroughputOps is Ops over it. Both include wire round-trip time,
	// which is the point.
	WallSec       float64
	ThroughputOps float64
	// SimTotalMs and Counters are the server-side world's aggregate
	// simulated cost and counters; with one client they are byte-equal
	// to sim.Run on the same Config.
	SimTotalMs float64
	Counters   metric.Counters
	// HistoryDigest is the served world's running history digest
	// (engine.Result.HistoryDigest): equal to an in-process run's when
	// both committed the same history.
	HistoryDigest string
	// SegWaitNs, SegIONs, SegRecomputeNs and SegComputeNs total the
	// steps' critical-path segments, as engine.Result's fields of the same
	// names do; all but the lock wait are zero unless WorldOpen.CritPath.
	SegWaitNs, SegIONs, SegRecomputeNs, SegComputeNs int64
	// Ledger is the world's cache-efficacy ledger (JSONL) when the open
	// asked for one (WorldOpen.Ledger).
	Ledger []byte
}

// DriveServed runs one workload through the procserved at addr: it opens
// a bench world over the control connection, then drives every session
// concurrently over a connection of its own, each step a TWorldNext
// frame, and finally collects the world's sealed statistics. The server's
// engine deals the operation stream exactly as engine.Run does, so the
// committed per-session streams match an in-process run's. Every
// connection is dialed through tracer; nil drives untraced.
func DriveServed(ctx context.Context, addr string, open *wire.WorldOpen, tracer *client.Tracer) (_ *ServedResult, err error) {
	control, err := client.DialTraced(addr, tracer)
	if err != nil {
		return nil, fmt.Errorf("served: dial control: %w", err)
	}
	defer control.Close()
	opened, err := control.WorldOpen(ctx, open)
	if err != nil {
		return nil, fmt.Errorf("served: open world: %w", err)
	}
	defer func() {
		if cerr := control.WorldClose(context.Background(), opened.World); cerr != nil && err == nil {
			err = fmt.Errorf("served: close world: %w", cerr)
		}
	}()

	errCh := make(chan error, opened.Sessions)
	segs := make([][4]int64, opened.Sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < opened.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cn, err := client.DialTraced(addr, tracer)
			if err != nil {
				errCh <- fmt.Errorf("served: session %d: dial: %w", s, err)
				return
			}
			defer cn.Close()
			for {
				step, err := cn.WorldNext(ctx, opened.World, s)
				if err != nil {
					errCh <- fmt.Errorf("served: session %d: %w", s, err)
					return
				}
				if step.Done {
					return
				}
				seg := &segs[s]
				seg[0] += step.WaitNs
				seg[1] += step.IONs
				seg[2] += step.RecomputeNs
				seg[3] += step.ComputeNs
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return nil, err
		}
	}

	stats, err := control.WorldStats(ctx, opened.World)
	if err != nil {
		return nil, fmt.Errorf("served: world stats: %w", err)
	}
	out := &ServedResult{
		Clients:       opened.Sessions,
		Ops:           stats.Ops,
		Queries:       stats.Queries,
		Updates:       stats.Updates,
		Tuples:        stats.Tuples,
		WallSec:       wall,
		SimTotalMs:    stats.SimTotalMs,
		Counters:      stats.Counters,
		HistoryDigest: stats.HistoryDigest,
		Ledger:        stats.Ledger,
	}
	for _, seg := range segs {
		out.SegWaitNs += seg[0]
		out.SegIONs += seg[1]
		out.SegRecomputeNs += seg[2]
		out.SegComputeNs += seg[3]
	}
	if wall > 0 {
		out.ThroughputOps = float64(stats.Ops) / wall
	}
	return out, nil
}
