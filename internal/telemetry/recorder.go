// Package telemetry is the live ops surface of the concurrent engine: a
// lock-free flight recorder of recent engine events, the always-on
// regression detectors, and an HTTP hub serving Prometheus-text metrics,
// expvar, pprof and the flight-recorder tail. Latency quantiles come
// from obs.Histogram.
//
// Unlike package obs — which measures *simulated* milliseconds and is
// exactly reproducible per seed — this package observes the *running
// process*: wall-clock waits and holds, sessions in flight, goroutines.
// Every entry point is nil-safe, so a disabled recorder or detector costs
// one nil check at each instrumentation site and the zero-telemetry
// engine path stays at its pre-telemetry cost.
//
// See docs/TELEMETRY.md for the endpoints, the flight-recorder dump
// format, and reading a live process with procstat.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the flight recorder. Kinds are dotted
// component.event strings so dumps read like the obs span vocabulary.
const (
	EvOpBegin      = "op.begin"
	EvOpCommit     = "op.commit"
	EvLockAcquire  = "lock.acquire"
	EvLockRelease  = "lock.release"
	EvCacheInval   = "cache.invalidate"
	EvCacheRefresh = "cache.refresh"
	EvFault        = "fault"
	EvWatchdog     = "watchdog.fire"
	EvViolation    = "oracle.violation"
	EvDetector     = "detector.fire"
	EvCancel       = "server.cancel"
)

// Event is one flight-recorder entry. I is the global record index (total
// order of Record calls); TNs is wall-clock nanoseconds since the
// recorder was created. Session and Seq default to -1 ("not applicable"):
// pre-commit events know their session but not yet their commit sequence.
type Event struct {
	I       int64  `json:"i"`
	TNs     int64  `json:"t_ns"`
	Kind    string `json:"kind"`
	Session int    `json:"session"`
	Seq     int    `json:"seq"`
	Name    string `json:"name,omitempty"`
	WaitNs  int64  `json:"wait_ns,omitempty"`
	HoldNs  int64  `json:"hold_ns,omitempty"`
	Detail  string `json:"detail,omitempty"`
	// Seqs carries the blocked frontier of an oracle-violation event: the
	// commit sequence of each operation no serial extension could
	// accommodate (aligned against the timeline by procstat).
	Seqs []int `json:"seqs,omitempty"`
}

// Recorder is a fixed-size lock-free ring of recent events. Writers claim
// a slot with one atomic add and publish the event with one atomic
// pointer store; readers snapshot by loading the pointers — no locks, no
// waiting, and safe under the race detector. When the ring wraps, the
// oldest events are overwritten (Dropped counts them).
//
// A nil *Recorder is the disabled state: Record on it is a no-op, so
// instrumented code pays one nil check when telemetry is off.
type Recorder struct {
	start time.Time
	slots []atomic.Pointer[Event]
	next  atomic.Int64

	autoMu sync.Mutex
	autoW  io.Writer
	autoF  string
}

// NewRecorder returns a recorder retaining the last size events (minimum
// 16; a few thousand covers seconds of 8-session traffic).
func NewRecorder(size int) *Recorder {
	if size < 16 {
		size = 16
	}
	return &Recorder{start: time.Now(), slots: make([]atomic.Pointer[Event], size)}
}

// Record appends one event, stamping its index and wall-clock offset.
// Safe for concurrent use and nil-safe. Recording a triggering kind
// (watchdog fire, oracle violation, detector fire, generic fault)
// snapshots the ring and writes the configured auto-dump, turning the
// failure into a self-contained post-mortem.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	ev.I = r.next.Add(1) - 1
	ev.TNs = time.Since(r.start).Nanoseconds()
	r.slots[ev.I%int64(len(r.slots))].Store(&ev)
	switch ev.Kind {
	case EvWatchdog, EvViolation, EvFault, EvDetector:
		r.autoDump(ev.Kind)
	}
}

// Op records a session-scoped event with the common fields filled in.
func (r *Recorder) Op(kind string, session, seq int, name string, waitNs, holdNs int64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: kind, Session: session, Seq: seq, Name: name, WaitNs: waitNs, HoldNs: holdNs})
}

// Len reports how many events have been recorded in total (including any
// overwritten by ring wrap).
func (r *Recorder) Len() int64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the retained events oldest-first plus the count of
// older events lost to ring wrap. Events published mid-snapshot may be
// skipped or included; each returned event is internally consistent
// (writers publish whole *Event values).
func (r *Recorder) Snapshot() (events []Event, dropped int64) {
	if r == nil {
		return nil, 0
	}
	total := r.next.Load()
	events = make([]Event, 0, len(r.slots))
	floor := total - int64(len(r.slots))
	if floor < 0 {
		floor = 0
	}
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil && ev.I >= floor {
			events = append(events, *ev)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].I < events[j].I })
	if n := len(events); n > 0 {
		dropped = events[0].I
	} else {
		dropped = total
	}
	return events, dropped
}

// SetAutoDumpWriter directs automatic dumps (triggered by watchdog,
// violation and fault events) at w. Nil-safe.
func (r *Recorder) SetAutoDumpWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.autoMu.Lock()
	r.autoW = w
	r.autoF = ""
	r.autoMu.Unlock()
}

// SetAutoDumpFile directs automatic dumps at a file, created (truncated)
// at dump time so an armed-but-never-triggered recorder leaves no file.
func (r *Recorder) SetAutoDumpFile(path string) {
	if r == nil {
		return
	}
	r.autoMu.Lock()
	r.autoW = nil
	r.autoF = path
	r.autoMu.Unlock()
}

func (r *Recorder) autoDump(reason string) {
	r.autoMu.Lock()
	defer r.autoMu.Unlock()
	switch {
	case r.autoW != nil:
		r.dumpJSONL(r.autoW, reason)
	case r.autoF != "":
		f, err := os.Create(r.autoF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: auto-dump: %v\n", err)
			return
		}
		if err := r.dumpJSONL(f, reason); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: auto-dump: %v\n", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "telemetry: flight recorder dumped to %s (reason: %s)\n", r.autoF, reason)
	}
}

// ---------------------------------------------------------------------------
// Dump format (JSONL, same typed-line convention as obs trace files)

// Record types in a flight dump.
const (
	RecordFlight     = "flight"
	RecordEvent      = "event"
	RecordContention = "contention"
)

// FlightRecord is the dump header: why the dump was taken and how much
// the ring retained.
type FlightRecord struct {
	Type    string `json:"type"`
	Reason  string `json:"reason"`
	Events  int    `json:"events"`
	Dropped int64  `json:"dropped"`
	// StartUnixNs anchors the events' relative TNs to wall-clock time.
	StartUnixNs int64 `json:"start_unix_ns"`
}

// EventRecord is one event line.
type EventRecord struct {
	Type string `json:"type"`
	Event
}

// LockContentionJSON is one lock's profile in a contention record and in
// procsim -json output: acquisition counts, how many acquisitions
// actually waited, total/max wall-clock wait and hold, and this lock's
// share of the run's total wait time.
type LockContentionJSON struct {
	Name      string  `json:"name"`
	Acquires  int64   `json:"acquires"`
	Exclusive int64   `json:"exclusive"`
	Contended int64   `json:"contended"`
	WaitMs    float64 `json:"wait_ms"`
	HoldMs    float64 `json:"hold_ms"`
	MaxWaitUs float64 `json:"max_wait_us"`
	MaxHoldUs float64 `json:"max_hold_us"`
	WaitShare float64 `json:"wait_share"`
}

// ContentionRecord carries one run's lock-contention profile in a trace
// or flight dump.
type ContentionRecord struct {
	Type  string               `json:"type"`
	Run   string               `json:"run"`
	Locks []LockContentionJSON `json:"locks"`
}

// DumpJSONL writes the dump header followed by every retained event, one
// JSON object per line. The output round-trips through artifact.Load and
// renders with `procstat`.
func (r *Recorder) DumpJSONL(w io.Writer, reason string) error {
	if r == nil {
		return nil
	}
	return r.dumpJSONL(w, reason)
}

func (r *Recorder) dumpJSONL(w io.Writer, reason string) error {
	events, dropped := r.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(FlightRecord{
		Type:        RecordFlight,
		Reason:      reason,
		Events:      len(events),
		Dropped:     dropped,
		StartUnixNs: r.start.UnixNano(),
	}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(EventRecord{Type: RecordEvent, Event: ev}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTimeline renders events (oldest first) as an aligned table. mark,
// when non-nil, flags rows — procstat uses it to align a serializability
// violation's blocked operations against the timeline.
func WriteTimeline(w io.Writer, events []Event, dropped int64, mark func(Event) bool) {
	fmt.Fprintf(w, "flight recorder: %d events retained, %d dropped\n", len(events), dropped)
	if len(events) == 0 {
		return
	}
	fmt.Fprintf(w, "  %12s %4s %5s  %-16s %-22s %s\n", "t", "sess", "seq", "kind", "name", "detail")
	for _, ev := range events {
		sess, seq := "-", "-"
		if ev.Session >= 0 {
			sess = fmt.Sprintf("%d", ev.Session)
		}
		if ev.Seq >= 0 {
			seq = fmt.Sprintf("%d", ev.Seq)
		}
		var d []byte
		if ev.WaitNs > 0 {
			d = append(d, fmt.Sprintf("wait=%s ", time.Duration(ev.WaitNs))...)
		}
		if ev.HoldNs > 0 {
			d = append(d, fmt.Sprintf("hold=%s ", time.Duration(ev.HoldNs))...)
		}
		if ev.Detail != "" {
			d = append(d, ev.Detail...)
		}
		flag := " "
		if mark != nil && mark(ev) {
			flag = "*"
		}
		fmt.Fprintf(w, "%s %12s %4s %5s  %-16s %-22s %s\n",
			flag, time.Duration(ev.TNs).Round(time.Microsecond), sess, seq, ev.Kind, ev.Name, string(d))
	}
}

// Dump is one parsed flight-recorder dump: its header and the events
// that follow it (artifact.Load reads them).
type Dump struct {
	Header FlightRecord
	Events []Event
}

// Violations returns the oracle-violation events in the dump.
func (d *Dump) Violations() []Event {
	var out []Event
	for _, ev := range d.Events {
		if ev.Kind == EvViolation {
			out = append(out, ev)
		}
	}
	return out
}

// RenderContention writes one contention record as an aligned top-K
// table (the columns procsim -clients prints).
func RenderContention(w io.Writer, rec ContentionRecord, topK int) {
	if topK <= 0 || topK > len(rec.Locks) {
		topK = len(rec.Locks)
	}
	fmt.Fprintf(w, "lock contention [%s]: top %d of %d locks by wait time\n", rec.Run, topK, len(rec.Locks))
	fmt.Fprintf(w, "  %-14s %9s %9s %10s %7s %10s %11s\n",
		"lock", "acquires", "contended", "wait", "share", "hold", "max wait")
	for _, l := range rec.Locks[:topK] {
		fmt.Fprintf(w, "  %-14s %9d %9d %9.2fms %6.1f%% %9.2fms %9.0fus\n",
			l.Name, l.Acquires, l.Contended, l.WaitMs, 100*l.WaitShare, l.HoldMs, l.MaxWaitUs)
	}
}
