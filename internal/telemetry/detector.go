package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Thresholds configures the always-on detectors. A zero threshold
// disables that detector; DefaultThresholds gives the documented
// production set.
type Thresholds struct {
	// P99WallNs fires the latency detector when the running p99
	// operation wall time (nanoseconds) exceeds it.
	P99WallNs float64
	// ContentionShare fires when lock-wait time exceeds this fraction
	// of total operation wall time.
	ContentionShare float64
	// WastedWorkRatio fires when the ledger's wasted compute exceeds
	// this fraction of all cache-compute cost.
	WastedWorkRatio float64
	// ServedP99Ns fires the served-path SLO detector when a request
	// type's p99 service time (nanoseconds, measured dispatch to
	// response build on the server) exceeds it.
	ServedP99Ns float64
}

// DefaultThresholds returns the standard detector configuration:
// p99 above 50ms, more than half of wall time spent waiting on locks,
// more than half of cache-compute cost wasted, or a served request
// type's p99 above 250ms.
func DefaultThresholds() Thresholds {
	return Thresholds{P99WallNs: 50e6, ContentionShare: 0.5, WastedWorkRatio: 0.5, ServedP99Ns: 250e6}
}

// Detectors evaluates the thresholds against live run statistics and,
// on first breach, records an EvDetector event — which triggers the
// flight recorder's auto-dump, turning the anomaly into a post-mortem.
// Each detector fires at most once per run. Nil-safe: a nil *Detectors
// ignores every check.
type Detectors struct {
	th  Thresholds
	rec *Recorder

	latencyFired    atomic.Bool
	contentionFired atomic.Bool
	wastedFired     atomic.Bool
	servedFired     atomic.Bool
}

// NewDetectors builds a detector set recording through rec (which may
// be nil; events are then dropped but firing state still latches).
func NewDetectors(th Thresholds, rec *Recorder) *Detectors {
	return &Detectors{th: th, rec: rec}
}

func (d *Detectors) fire(latch *atomic.Bool, name, detail string) {
	if latch.CompareAndSwap(false, true) {
		d.rec.Record(Event{Kind: EvDetector, Session: -1, Seq: -1, Name: name, Detail: detail})
	}
}

// CheckLatency tests the running p99 operation wall time (ns).
func (d *Detectors) CheckLatency(p99Ns float64) {
	if d == nil || d.th.P99WallNs <= 0 || p99Ns <= d.th.P99WallNs {
		return
	}
	d.fire(&d.latencyFired, "p99_latency",
		fmt.Sprintf("p99 op wall %.2fms exceeds %.2fms", p99Ns/1e6, d.th.P99WallNs/1e6))
}

// CheckContention tests cumulative lock-wait against cumulative wall time.
func (d *Detectors) CheckContention(waitNs, wallNs int64) {
	if d == nil || d.th.ContentionShare <= 0 || wallNs <= 0 {
		return
	}
	share := float64(waitNs) / float64(wallNs)
	if share <= d.th.ContentionShare {
		return
	}
	d.fire(&d.contentionFired, "contention_share",
		fmt.Sprintf("lock-wait share %.2f exceeds %.2f (%dns of %dns)", share, d.th.ContentionShare, waitNs, wallNs))
}

// CheckWastedWork tests the ledger's wasted compute cost against all
// compute cost (simulated milliseconds).
func (d *Detectors) CheckWastedWork(wastedMs, computeMs float64) {
	if d == nil || d.th.WastedWorkRatio <= 0 || computeMs <= 0 {
		return
	}
	ratio := wastedMs / computeMs
	if ratio <= d.th.WastedWorkRatio {
		return
	}
	d.fire(&d.wastedFired, "wasted_work",
		fmt.Sprintf("wasted-work ratio %.2f exceeds %.2f (%.1fms of %.1fms)", ratio, d.th.WastedWorkRatio, wastedMs, computeMs))
}

// CheckServedP99 tests one request type's running p99 service time
// (ns) against the served-path SLO.
func (d *Detectors) CheckServedP99(reqType string, p99Ns float64) {
	if d == nil || d.th.ServedP99Ns <= 0 || p99Ns <= d.th.ServedP99Ns {
		return
	}
	d.fire(&d.servedFired, "served_p99",
		fmt.Sprintf("served %s p99 %.2fms exceeds %.2fms", reqType, p99Ns/1e6, d.th.ServedP99Ns/1e6))
}
