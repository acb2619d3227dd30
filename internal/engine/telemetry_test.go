package engine

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbproc/internal/artifact"
	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/sim"
	"dbproc/internal/telemetry"
)

// fullTelemetry is the everything-on option set used by these tests.
func fullTelemetry(clients int, rec *telemetry.Recorder) Options {
	return Options{
		Clients:       clients,
		RecordHistory: true,
		Recorder:      rec,
	}
}

// TestTelemetryPreservesSequentialIdentity is the safety gate for this
// PR: with every telemetry feature enabled, a 1-client run must still be
// byte-identical to the sequential simulator — observation must not
// perturb the simulated machine.
func TestTelemetryPreservesSequentialIdentity(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 41, 15, 25)
	seq := sim.Run(cfg)
	e := New(cfg, fullTelemetry(1, telemetry.NewRecorder(4096)))
	got := e.Run(context.Background())
	if got.Counters != seq.Counters {
		t.Fatalf("telemetry perturbed counters:\n got %v\nwant %v", got.Counters, seq.Counters)
	}
	if got.SimTotalMs != seq.TotalMs {
		t.Fatalf("telemetry perturbed cost: got %v want %v", got.SimTotalMs, seq.TotalMs)
	}
}

func TestFlightRecorderCapturesRun(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	rec := telemetry.NewRecorder(1 << 14)
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 19, 12, 20)
	e := New(cfg, fullTelemetry(4, rec))
	res := e.Run(context.Background())

	var buf bytes.Buffer
	if err := rec.DumpJSONL(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	a := &artifact.Set{}
	if err := a.Add("dump.jsonl", buf.Bytes()); err != nil || len(a.Dumps) != 1 {
		t.Fatalf("dump: %v, %d dumps", err, len(a.Dumps))
	}
	d := a.Dumps[0]
	kinds := map[string]int{}
	commits := map[int]bool{}
	for _, ev := range d.Events {
		kinds[ev.Kind]++
		if ev.Kind == telemetry.EvOpCommit {
			if ev.Seq < 0 || ev.Session < 0 || ev.Session >= 4 {
				t.Fatalf("commit event missing attribution: %+v", ev)
			}
			commits[ev.Seq] = true
		}
	}
	if kinds[telemetry.EvOpBegin] != res.Ops || kinds[telemetry.EvOpCommit] != res.Ops {
		t.Fatalf("begin/commit counts %d/%d, want %d each (kinds: %v)",
			kinds[telemetry.EvOpBegin], kinds[telemetry.EvOpCommit], res.Ops, kinds)
	}
	for seq := 0; seq < res.Ops; seq++ {
		if !commits[seq] {
			t.Fatalf("no commit event for seq %d", seq)
		}
	}
	// Cache and Invalidate flips validity: the observer feed must appear.
	if kinds["cache.invalidate"] == 0 || kinds["cache.refresh"] == 0 {
		t.Fatalf("no cache observer events (kinds: %v)", kinds)
	}

	// The timeline renders without error and mentions a commit.
	buf.Reset()
	events, dropped := rec.Snapshot()
	telemetry.WriteTimeline(&buf, events, dropped, nil)
	if !strings.Contains(buf.String(), telemetry.EvOpCommit) {
		t.Fatalf("timeline missing commits:\n%.400s", buf.String())
	}
}

// TestLockReleaseIsAnUpdatesHold: only an update takes locks, so only an
// update records lock.release, and its hold runs from the footprint's
// acquisition to its release — inside the op's wall time and after its
// lock wait, so it is at most the op's service time (wall minus wait),
// which op.commit records.
func TestLockReleaseIsAnUpdatesHold(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	rec := telemetry.NewRecorder(1 << 14)
	cfg := testConfig(costmodel.UpdateCacheRVM, costmodel.Model1, 23, 30, 30)
	res := New(cfg, Options{Clients: 2, Recorder: rec}).Run(context.Background())
	events, dropped := rec.Snapshot()
	if dropped != 0 {
		t.Fatalf("recorder dropped %d events", dropped)
	}
	service := map[int]int64{}
	for _, ev := range events {
		if ev.Kind == telemetry.EvOpCommit {
			service[ev.Seq] = ev.HoldNs
		}
	}
	releases := 0
	for _, ev := range events {
		if ev.Kind != telemetry.EvLockRelease {
			continue
		}
		releases++
		if ev.Name != "update" {
			t.Errorf("seq %d (%s) released locks: only updates take any", ev.Seq, ev.Name)
		}
		if s, ok := service[ev.Seq]; !ok || ev.HoldNs > s {
			t.Errorf("update seq %d held its locks %d ns, longer than its %d ns of service", ev.Seq, ev.HoldNs, s)
		}
	}
	if releases != res.Updates {
		t.Fatalf("%d lock releases for %d updates", releases, res.Updates)
	}
}

func TestContentionProfile(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 23, 16, 24)
	e := New(cfg, fullTelemetry(8, nil))
	res := e.Run(context.Background())

	if len(res.Contention) == 0 {
		t.Fatal("profiling run reported no lock activity")
	}
	var totalAcquires, totalWait int64
	seen := map[string]bool{}
	for _, c := range res.Contention {
		if seen[c.Name] {
			t.Fatalf("lock %q appears twice", c.Name)
		}
		seen[c.Name] = true
		if c.Contended > c.Acquires || c.Exclusive > c.Acquires {
			t.Fatalf("inconsistent profile: %+v", c)
		}
		if c.WaitNs > 0 && c.Contended == 0 {
			t.Fatalf("wait without contention: %+v", c)
		}
		if c.MaxWaitNs > 0 && c.WaitNs < c.MaxWaitNs {
			t.Fatalf("max wait exceeds total: %+v", c)
		}
		totalAcquires += c.Acquires
		totalWait += c.WaitNs
	}
	if !seen[RelLock("r1")] {
		t.Fatalf("r1 lock missing from profile: %v", res.Contention)
	}
	// Sorted by wait descending.
	for i := 1; i < len(res.Contention); i++ {
		if res.Contention[i].WaitNs > res.Contention[i-1].WaitNs {
			t.Fatal("contention not sorted by wait")
		}
	}
	// Export form: shares sum to 1 when any wait occurred.
	rows := ContentionJSON(res.Contention)
	var share float64
	for _, r := range rows {
		share += r.WaitShare
	}
	if totalWait > 0 && (share < 0.999 || share > 1.001) {
		t.Fatalf("wait shares sum to %v", share)
	}
	if totalWait == 0 && share != 0 {
		t.Fatalf("no wait but share %v", share)
	}

	// The merged latency histograms cover every op in both domains.
	if res.WallLatency.Count != int64(res.Ops) || res.SimLatency.Count != int64(res.Ops) {
		t.Fatalf("histogram counts %d/%d, want %d", res.WallLatency.Count, res.SimLatency.Count, res.Ops)
	}
	if res.SimLatency.Max <= 0 || res.WallLatency.P50 <= 0 {
		t.Fatalf("degenerate histograms: wall=%+v sim=%+v", res.WallLatency, res.SimLatency)
	}
}

// TestLatencyDetectorNeedsNoOtherOption: the p99 latency detector reads
// the sessions' always-on wall histograms, so a recorder — and no other
// option — arms it, and an absurdly low threshold must fire it.
func TestLatencyDetectorNeedsNoOtherOption(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	rec := telemetry.NewRecorder(1 << 12)
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 13, 10, 20)
	if New(cfg, Options{}).det != nil {
		t.Fatal("detectors armed without a recorder")
	}
	e := New(cfg, Options{Recorder: rec})
	if e.det == nil {
		t.Fatal("a recorder did not arm the detectors")
	}
	e.det = telemetry.NewDetectors(telemetry.Thresholds{P99WallNs: 1}, rec)
	e.Run(context.Background())
	events, _ := rec.Snapshot()
	for _, ev := range events {
		if ev.Kind == telemetry.EvDetector && ev.Name == "p99_latency" {
			return
		}
	}
	t.Fatalf("no p99_latency detector event among %d recorded", len(events))
}

func TestTelemetryMetricsSource(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	cfg := testConfig(costmodel.UpdateCacheAVM, costmodel.Model1, 29, 10, 16)
	e := New(cfg, fullTelemetry(4, nil))
	res := e.Run(context.Background())

	ms := e.TelemetryMetrics()
	byName := map[string][]telemetry.Metric{}
	for _, m := range ms {
		byName[m.Name] = append(byName[m.Name], m)
	}
	if got := byName["dbproc_ops_committed_total"][0].Value; got != float64(res.Ops) {
		t.Fatalf("committed = %v, want %d", got, res.Ops)
	}
	if got := byName["dbproc_sessions_inflight"][0].Value; got != 0 {
		t.Fatalf("inflight after run = %v", got)
	}
	// Per-lock samples must agree with the contention profile.
	waits, maxWaits := map[string]float64{}, map[string]float64{}
	for _, m := range byName["dbproc_lock_wait_seconds_total"] {
		waits[m.Labels["lock"]] = m.Value
	}
	for _, m := range byName["dbproc_lock_max_wait_seconds"] {
		maxWaits[m.Labels["lock"]] = m.Value
	}
	for _, c := range res.Contention {
		if got := waits[c.Name]; got != float64(c.WaitNs)/1e9 {
			t.Fatalf("lock %s wait %v, profile %v", c.Name, got, float64(c.WaitNs)/1e9)
		}
		if got := maxWaits[c.Name]; got != float64(c.MaxWaitNs)/1e9 {
			t.Fatalf("lock %s max wait %v, profile %v", c.Name, got, float64(c.MaxWaitNs)/1e9)
		}
	}
	// The disk gauges read the world's page table at scrape time.
	pages, imageBytes := e.w.Disk().ImageStats()
	if got := byName["dbproc_disk_pages"]; len(got) != 1 || got[0].Value != float64(pages) || pages != e.w.Disk().NumPages() {
		t.Fatalf("dbproc_disk_pages %v, want %d", got, pages)
	}
	if got := byName["dbproc_disk_image_bytes"]; len(got) != 1 || got[0].Value != float64(imageBytes) || imageBytes <= 0 {
		t.Fatalf("dbproc_disk_image_bytes %v, want %d", got, imageBytes)
	}
	// Latency quantile gauges exist for both domains.
	if len(byName["dbproc_op_latency_wall_ns"]) != 4 || len(byName["dbproc_op_latency_sim_ms"]) != 4 {
		t.Fatalf("quantile gauges: %d wall, %d sim",
			len(byName["dbproc_op_latency_wall_ns"]), len(byName["dbproc_op_latency_sim_ms"]))
	}
	// Simulated counters (latch is free post-run) match the result.
	evs := map[string]float64{}
	for _, m := range byName["dbproc_sim_events_total"] {
		evs[m.Labels["event"]] = m.Value
	}
	if evs["page_read"] != float64(res.Counters.PageReads) || evs["screen"] != float64(res.Counters.Screens) {
		t.Fatalf("sim events %v vs counters %v", evs, res.Counters)
	}

	// And the whole set renders as Prometheus text.
	var buf bytes.Buffer
	telemetry.WriteMetrics(&buf, ms)
	if !strings.Contains(buf.String(), "dbproc_ops_committed_total") {
		t.Fatalf("render:\n%.300s", buf.String())
	}
}

// TestMidRunScrapeMonotone scrapes TelemetryMetrics continuously while a
// multi-session run is live. The scrape must never block on a session
// (the commit aggregate is atomics, not a latch), every scrape must
// succeed — there is no "try" path that skips a busy sample — and each
// counter must be monotone from one scrape to the next. The final scrape
// must agree exactly with the run result.
func TestMidRunScrapeMonotone(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 37, 14, 22)
	e := New(cfg, Options{Clients: 4, ThinkMeanMs: 0.2})

	monotone := []string{
		"dbproc_sim_events_total",
		"dbproc_ops_committed_total",
		"dbproc_lock_acquires_total",
		"dbproc_lock_contended_total",
		"dbproc_lock_wait_seconds_total",
		"dbproc_lock_max_wait_seconds",
	}
	isMonotone := map[string]bool{}
	for _, n := range monotone {
		isMonotone[n] = true
	}
	key := func(m telemetry.Metric) string {
		return m.Name + "|" + m.Labels["event"] + "|" + m.Labels["lock"]
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	var scrapes int
	go func() {
		defer close(done)
		prev := map[string]float64{}
		for {
			for _, m := range e.TelemetryMetrics() {
				if !isMonotone[m.Name] {
					continue
				}
				k := key(m)
				if m.Value < prev[k] {
					t.Errorf("scrape %d: %s went backwards: %v -> %v", scrapes, k, prev[k], m.Value)
					return
				}
				prev[k] = m.Value
			}
			scrapes++
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	res := e.Run(context.Background())
	close(stop)
	<-done
	if scrapes < 10 {
		t.Fatalf("only %d scrapes completed alongside the run", scrapes)
	}

	// The post-run scrape equals the result exactly: nothing was lost to a
	// skipped sample.
	evs := map[string]float64{}
	var committed float64
	for _, m := range e.TelemetryMetrics() {
		switch m.Name {
		case "dbproc_sim_events_total":
			evs[m.Labels["event"]] = m.Value
		case "dbproc_ops_committed_total":
			committed = m.Value
		}
	}
	if committed != float64(res.Ops) {
		t.Fatalf("committed = %v, want %d", committed, res.Ops)
	}
	c := res.Counters
	want := map[string]float64{
		"page_read":    float64(c.PageReads),
		"page_write":   float64(c.PageWrites),
		"screen":       float64(c.Screens),
		"delta_op":     float64(c.DeltaOps),
		"invalidation": float64(c.Invalidations),
	}
	for ev, w := range want {
		if evs[ev] != w {
			t.Fatalf("final scrape %s = %v, want %v (all: %v)", ev, evs[ev], w, evs)
		}
	}
}

// TestViolationTriggersFlightDump wires the oracle to the recorder the
// way verify.sh's soak does: a non-serializable verdict must auto-dump a
// flight file whose violation event procstat can align (Seqs present in
// the dumped timeline).
func TestViolationTriggersFlightDump(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	rec := telemetry.NewRecorder(1 << 12)
	var dump bytes.Buffer
	rec.SetAutoDumpWriter(&dump)

	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 7, 6, 10)
	e := New(cfg, fullTelemetry(2, rec))
	res := e.Run(context.Background())

	for i := range res.History {
		if res.History[i].Result != nil {
			res.History[i].Result = append([]byte(nil), res.History[i].Result...)
			res.History[i].Result[0] ^= 0xFF
			break
		}
	}
	rep := CheckSerializable(cfg, res.History, 0)
	if rep.Serializable {
		t.Fatal("oracle accepted a corrupted history")
	}
	if len(rep.BlockedSeqs) == 0 {
		t.Fatal("report carries no blocked seqs")
	}
	RecordViolation(rec, rep)
	if dump.Len() == 0 {
		t.Fatal("violation did not auto-dump")
	}
	a := &artifact.Set{}
	if err := a.Add("dump.jsonl", dump.Bytes()); err != nil || len(a.Dumps) != 1 {
		t.Fatalf("dump: %v, %d dumps", err, len(a.Dumps))
	}
	d := a.Dumps[0]
	vs := d.Violations()
	if len(vs) != 1 || vs[0].Detail == "" {
		t.Fatalf("violations in dump: %+v", vs)
	}
	if len(vs[0].Seqs) != len(rep.BlockedSeqs) {
		t.Fatalf("dumped seqs %v, report %v", vs[0].Seqs, rep.BlockedSeqs)
	}
	// The blocked seqs must reference ops whose commit events are in the
	// same dump — the alignment procstat renders.
	blocked := map[int]bool{}
	for _, s := range vs[0].Seqs {
		blocked[s] = true
	}
	matched := 0
	for _, ev := range d.Events {
		if ev.Kind == telemetry.EvOpCommit && blocked[ev.Seq] {
			matched++
		}
	}
	if matched != len(blocked) {
		t.Fatalf("only %d of %d blocked seqs have commit events in the dump", matched, len(blocked))
	}
	// RecordViolation is a no-op on serializable reports and nil recorders.
	dump.Reset()
	RecordViolation(rec, SerializabilityReport{Serializable: true})
	RecordViolation(nil, rep)
	if dump.Len() != 0 {
		t.Fatal("no-op cases dumped")
	}
}
