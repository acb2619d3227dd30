package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dbproc/internal/telemetry"
)

// flightReport renders one flight-recorder dump: its header, the
// detector and fault events, the event timeline — rows whose commit
// sequence the serializability oracle reported blocked are flagged with
// "*", aligning the minimal non-serializable window against the
// schedule that produced it — and the top lock-wait blockers.
func flightReport(w io.Writer, d *telemetry.Dump, topK int) {
	h := d.Header
	when := ""
	if h.StartUnixNs > 0 {
		when = ", recorder started " + time.Unix(0, h.StartUnixNs).UTC().Format(time.RFC3339)
	}
	fmt.Fprintf(w, "== flight dump, reason %q: %d events retained, %d dropped%s ==\n", h.Reason, h.Events, h.Dropped, when)
	for _, ev := range d.Events {
		switch ev.Kind {
		case telemetry.EvDetector:
			fmt.Fprintf(w, "  detector fired: %s — %s\n", ev.Name, ev.Detail)
		case telemetry.EvWatchdog, telemetry.EvViolation, telemetry.EvFault:
			fmt.Fprintf(w, "  fault event: %s %s %s\n", ev.Kind, ev.Name, ev.Detail)
		}
	}

	violations := d.Violations()
	blocked := map[int]bool{}
	for _, v := range violations {
		for _, s := range v.Seqs {
			blocked[s] = true
		}
	}
	var mark func(telemetry.Event) bool
	if len(blocked) > 0 {
		mark = func(ev telemetry.Event) bool { return ev.Seq >= 0 && blocked[ev.Seq] }
		fmt.Fprintln(w, "rows marked * belong to the minimal non-serializable window")
	}
	telemetry.WriteTimeline(w, d.Events, h.Dropped, mark)
	for _, v := range violations {
		fmt.Fprintf(w, "\nserializability violation (blocked seqs %v):\n%s\n", v.Seqs, v.Detail)
	}

	blockers := topBlockers(d)
	if len(blockers) == 0 {
		fmt.Fprintf(w, "  no lock waits among the retained events\n")
		return
	}
	blockerTable(w, blockers, topK)
}

// blockerTable renders blockers, sorted by total wait: the wait split by
// class, then the top K. A blocker with no recorded maximum wait (one
// read from /metrics, which exports totals only) omits it.
func blockerTable(w io.Writer, blockers []blockerAgg, topK int) {
	// Under the MVCC read path the only waits left fall into two causally
	// distinct classes: queueing behind an update's declared 2PL
	// footprint, or behind the post-commit version-chain sweep. The split
	// tells the reader which one a slow run is actually paying for.
	var fpNs, gcNs int64
	for _, b := range blockers {
		if waitClass(b.Lock) == waitClassGC {
			gcNs += b.WaitNs
		} else {
			fpNs += b.WaitNs
		}
	}
	fmt.Fprintf(w, "  wait split: %.3f ms waited on update footprints, %.3f ms on version-chain GC\n",
		float64(fpNs)/1e6, float64(gcNs)/1e6)
	k := limit(topK, len(blockers))
	fmt.Fprintf(w, "  top blockers by wall-clock wait (top %d of %d):\n", k, len(blockers))
	for _, b := range blockers[:k] {
		holder := b.Holder
		if holder == "" {
			holder = "(holder unknown: blame attribution was off)"
		}
		maxWait := ""
		if b.MaxWaitNs > 0 {
			maxWait = fmt.Sprintf(", max %.3f ms", float64(b.MaxWaitNs)/1e6)
		}
		fmt.Fprintf(w, "    %-14s %s: %d wait(s), %.3f ms total%s [%s]\n",
			b.Lock, holder, b.Waits, float64(b.WaitNs)/1e6, maxWait, waitClass(b.Lock))
	}
}

// blockerAgg aggregates blame-annotated lock.acquire events by
// (lock, holder) pair.
type blockerAgg struct {
	Lock      string
	Holder    string // the event Detail: "held by session N (op)"
	Waits     int
	WaitNs    int64
	MaxWaitNs int64
}

// topBlockers folds a dump's lock.acquire events into per-(lock, holder)
// wait totals, sorted by total wait descending.
func topBlockers(d *telemetry.Dump) []blockerAgg {
	type key struct{ lock, holder string }
	agg := map[key]*blockerAgg{}
	for _, ev := range d.Events {
		if ev.Kind != telemetry.EvLockAcquire || ev.WaitNs <= 0 {
			continue
		}
		k := key{ev.Name, ev.Detail}
		b, ok := agg[k]
		if !ok {
			b = &blockerAgg{Lock: ev.Name, Holder: ev.Detail}
			agg[k] = b
		}
		b.Waits++
		b.WaitNs += ev.WaitNs
		if ev.WaitNs > b.MaxWaitNs {
			b.MaxWaitNs = ev.WaitNs
		}
	}
	out := make([]blockerAgg, 0, len(agg))
	for _, b := range agg {
		out = append(out, *b)
	}
	sortBlockers(out)
	return out
}

// sortBlockers orders blockers by total wait descending, then by lock
// and holder.
func sortBlockers(out []blockerAgg) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitNs != out[j].WaitNs {
			return out[i].WaitNs > out[j].WaitNs
		}
		if out[i].Lock != out[j].Lock {
			return out[i].Lock < out[j].Lock
		}
		return out[i].Holder < out[j].Holder
	})
}

// Wait classes for blame reporting.
const (
	waitClassFootprint = "waited on update footprint"
	waitClassGC        = "waited on version-chain GC"
)

// waitClass classifies a lock name for blame output: rel: names are an
// update's declared 2PL footprint; the mvcc: namespace (the
// version-chain GC lock, engine.GCLock) is MVCC housekeeping that runs
// after an update's footprint is already released.
func waitClass(lock string) string {
	if strings.HasPrefix(lock, "mvcc:") {
		return waitClassGC
	}
	return waitClassFootprint
}
