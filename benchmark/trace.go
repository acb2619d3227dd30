package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"dbproc/benchmark/spec"
	"dbproc/client"
	"dbproc/internal/obs"
)

// The traced run's share of the measured seconds: a short untraced
// reference window (skipped when an untraced run of the same invocation
// supplies the numbers), the traced window, and the ladder.
const (
	referenceShare = 0.20
	tracedShare    = 0.45
	ladderShare    = 0.35
)

// traceFileOps is how many ops per client keep their spans for
// trace-<workload>.json; every op counts towards the per-layer means.
const traceFileOps = 2000

// segmentOrder lists the segment names the server reports, in the order
// they are laid out inside their server span; segmentLayer maps each
// onto its per-layer metric. The tables are data: a segment name they do
// not hold is reported in the run's notes and lands in no layer.
var segmentOrder = []string{"admission", "gate", "lock_wait", "io", "recompute", "compute"}

var segmentLayer = map[string]string{
	"admission": "server.admission_us",
	"gate":      "server.gate_us",
	"lock_wait": "engine.lock_wait_us",
	"io":        "storage.io_us",
	"recompute": "proc.recompute_us",
	"compute":   "engine.compute_us",
}

// wireSpan is the part of a wire-span JSONL line (docs/TRACING.md) the
// harness reads. It is decoded here, not through the program's record
// type, so a changed schema shows up as missing data in the report.
type wireSpan struct {
	TraceID     string           `json:"trace_id"`
	SpanID      string           `json:"span_id"`
	Name        string           `json:"name"`
	StartUnixNs int64            `json:"start_unix_ns"`
	DurNs       int64            `json:"dur_ns"`
	Segments    map[string]int64 `json:"segments"`
}

func readWireSpans(r io.Reader) ([]wireSpan, error) {
	var spans []wireSpan
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var sp wireSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("wire span line %d: %w", len(spans)+1, err)
		}
		if sp.TraceID != "" {
			spans = append(spans, sp)
		}
	}
	return spans, sc.Err()
}

// span is one line of trace-<workload>.json: a driver call recorded by
// the harness, or a program segment attached beneath it.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// layerSums accumulates self time, in nanoseconds, over a set of ops.
type layerSums struct {
	Ops        int
	HarnessNs  int64 // the driver calls, as the harness timed them
	ClientNs   int64 // the round trips inside them, as client.Tracer timed them
	ServerNs   int64 // the matching server spans
	Segment    map[string]int64
	UnsegNs    int64 // server spans that carry no partition (fetch, cursor.close)
	RoundTrips int
}

func (s *layerSums) add(o layerSums) {
	s.Ops += o.Ops
	s.HarnessNs += o.HarnessNs
	s.ClientNs += o.ClientNs
	s.ServerNs += o.ServerNs
	s.UnsegNs += o.UnsegNs
	s.RoundTrips += o.RoundTrips
	for k, v := range o.Segment {
		if s.Segment == nil {
			s.Segment = map[string]int64{}
		}
		s.Segment[k] += v
	}
}

// perOpUs is ns summed over the set, as microseconds per op.
func (s *layerSums) perOpUs(ns int64) float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(s.Ops)
}

// joined is the traced window taken apart.
type joined struct {
	Access, Update layerSums
	// AccessSelf, AccessNetwork and AccessServer hold every access's
	// three shares in microseconds, for the budget row's medians.
	AccessSelf, AccessNetwork, AccessServer []float64
	Spans                                   []span
	// Orphans counts client wire spans no driver call contains, Unmatched
	// client spans whose server half is missing from the server's file.
	Orphans, Unmatched int
	// Violations lists spans whose children do not fit inside them or
	// whose segments do not sum to them.
	Violations []string
}

// joinSpans nests one client's three span sources: each driver call
// contains the round trips client.Tracer stamped during it (the client
// is a closed loop, so containment in time is exact), and each round
// trip is joined to its server span by the trace id it propagated.
func joinSpans(j *joined, clientID int, ops []opSpan, wire []wireSpan, server map[string]wireSpan) {
	sort.Slice(wire, func(a, b int) bool { return wire[a].StartUnixNs < wire[b].StartUnixNs })
	w := 0
	for n, op := range ops {
		for w < len(wire) && wire[w].StartUnixNs < op.Start {
			j.Orphans++
			w++
		}
		keep := n < traceFileOps
		opID := fmt.Sprintf("c%d.op%d", clientID, n)
		name := "driver.access"
		if op.Update {
			name = "driver.update"
		}
		if keep {
			j.Spans = append(j.Spans, span{ID: opID, Trace: opID, Name: name, Start: op.Start, End: op.End})
		}
		one := layerSums{Ops: 1, HarnessNs: op.End - op.Start, Segment: map[string]int64{}}
		for ; w < len(wire) && wire[w].StartUnixNs+wire[w].DurNs <= op.End; w++ {
			cs := wire[w]
			one.RoundTrips++
			one.ClientNs += cs.DurNs
			if keep {
				j.Spans = append(j.Spans, span{ID: cs.SpanID, Parent: opID, Trace: opID, Name: "client." + cs.Name,
					Start: cs.StartUnixNs, End: cs.StartUnixNs + cs.DurNs})
			}
			ss, ok := server[cs.TraceID]
			if !ok {
				j.Unmatched++
				continue
			}
			if end := cs.StartUnixNs + cs.DurNs; len(ss.Segments) == 0 && ss.StartUnixNs+ss.DurNs > end {
				// A span without a partition is stamped after the response
				// was written, by when the client may already hold it: that
				// tail is not part of the round trip. Both processes read
				// one host clock, so the cut is exact.
				ss.DurNs = max(0, end-ss.StartUnixNs)
			}
			one.ServerNs += ss.DurNs
			if ss.DurNs > cs.DurNs {
				j.Violations = append(j.Violations, fmt.Sprintf("server span %s (%d ns) is longer than its client span (%d ns)", ss.SpanID, ss.DurNs, cs.DurNs))
			}
			if keep {
				j.Spans = append(j.Spans, span{ID: ss.SpanID, Parent: cs.SpanID, Trace: opID, Name: "server." + ss.Name,
					Start: ss.StartUnixNs, End: ss.StartUnixNs + ss.DurNs})
			}
			if len(ss.Segments) == 0 {
				one.UnsegNs += ss.DurNs
				continue
			}
			var sum int64
			for seg, ns := range ss.Segments {
				one.Segment[seg] += ns
				sum += ns
			}
			if sum != ss.DurNs {
				j.Violations = append(j.Violations, fmt.Sprintf("server span %s: segments sum to %d ns, span is %d ns", ss.SpanID, sum, ss.DurNs))
			}
			if keep {
				at := ss.StartUnixNs
				for _, seg := range orderedSegments(ss.Segments) {
					j.Spans = append(j.Spans, span{ID: ss.SpanID + "." + seg, Parent: ss.SpanID, Trace: opID, Name: "segment." + seg,
						Start: at, End: at + ss.Segments[seg]})
					at += ss.Segments[seg]
				}
			}
		}
		if one.ClientNs > one.HarnessNs {
			j.Violations = append(j.Violations, fmt.Sprintf("%s: round trips (%d ns) exceed the driver call (%d ns)", opID, one.ClientNs, one.HarnessNs))
		}
		if op.Update {
			j.Update.add(one)
		} else {
			j.Access.add(one)
			j.AccessSelf = append(j.AccessSelf, float64(one.HarnessNs-one.ClientNs)/1e3)
			j.AccessNetwork = append(j.AccessNetwork, float64(one.ClientNs-one.ServerNs)/1e3)
			j.AccessServer = append(j.AccessServer, float64(one.ServerNs)/1e3)
		}
	}
	j.Orphans += len(wire) - w
}

// orderedSegments returns the span's segment names, known ones in
// canonical order, unknown ones after them by name.
func orderedSegments(segs map[string]int64) []string {
	var out, unknown []string
	for _, seg := range segmentOrder {
		if _, ok := segs[seg]; ok {
			out = append(out, seg)
		}
	}
	for seg := range segs {
		if _, ok := segmentLayer[seg]; !ok {
			unknown = append(unknown, seg)
		}
	}
	sort.Strings(unknown)
	return append(out, unknown...)
}

// reference is the untraced figure the traced run is held against.
type reference struct {
	OpsPerS     float64
	AccessP50Us float64
}

// measureTraced is the traced run: per-layer self times from the
// harness's own spans joined with what the program emits, the output
// checks on those spans, and the in-process ladder. untraced, when
// non-nil, is this invocation's untraced run of the same workload;
// otherwise a short reference window is measured first.
func measureTraced(ctx context.Context, wl spec.Workload, o options, untraced *result) (*result, error) {
	res := newResult(wl, o, true)
	total := time.Duration(o.Seconds * float64(time.Second))

	var ref reference
	if untraced != nil {
		ref = reference{untraced.Metrics["ops_per_s"].Value, untraced.Metrics["access_p50_us"].Value}
	} else {
		t, err := setup(ctx, o.Bin, wl, o.Seed, nil, "")
		if err != nil {
			return nil, fmt.Errorf("%s: reference setup: %w", wl.Name, err)
		}
		window := time.Duration(referenceShare * float64(total))
		w := foldRuns(runClients(ctx, t.steps, loopPlan{Warm: window / 4, Measure: window * 3 / 4}))
		if w.All.Err != nil {
			res.fail("reference window: an op failed: %v", w.All.Err)
		}
		res.Attempted += w.All.Ops + w.All.Failed
		res.Failed += w.All.Failed
		ref = reference{w.opsPerS(), percentile(w.Access, 0.50)}
		if err := t.teardown(ctx); err != nil {
			res.fail("%v", err)
		}
	}

	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return nil, err
	}
	serverFile := filepath.Join(o.TraceDir, "server-"+wl.Name+".jsonl")
	// Each client's spans stay in memory until the run ends; the sink
	// serializes its writes, and nothing reads a buffer before then.
	sinks := make([]*bytes.Buffer, spec.Clients)
	tracers := make([]*client.Tracer, spec.Clients)
	for i := range tracers {
		sinks[i] = &bytes.Buffer{}
		tracers[i] = client.NewTracer(obs.NewWireSpanSink(sinks[i]))
	}
	t, err := setup(ctx, o.Bin, wl, o.Seed, tracers, serverFile)
	if err != nil {
		return nil, fmt.Errorf("%s: traced setup: %w", wl.Name, err)
	}
	runs := runClients(ctx, t.steps, loopPlan{Measure: time.Duration(tracedShare * float64(total)), Spans: true})
	w := foldRuns(runs)
	res.Attempted += w.All.Ops + w.All.Failed
	res.Failed += w.All.Failed
	if w.All.Err != nil {
		res.fail("an op failed: %v", w.All.Err)
	}
	tracedOpsPerS := w.opsPerS()

	if w.All.Err == nil {
		if wl.IsQuel() {
			probe, err := t.quelProbe(ctx, o.probeRounds())
			if err != nil {
				res.fail("%v", err)
			}
			res.set("cache.hit_ratio", "ratio", probe.HitRatio, probe.Executes)
			checkNeverStale(ctx, t, res)
		} else {
			worldLayers(ctx, t, o, w.All, res)
		}
	}
	if err := t.teardown(ctx); err != nil {
		res.fail("%v", err)
	}

	// The server has exited, so its span file is complete.
	serverSpans, err := readServerSpans(serverFile)
	if err != nil {
		res.fail("%v", err)
	}
	var j joined
	for i, run := range runs {
		wire, err := readWireSpans(sinks[i])
		if err != nil {
			res.fail("client %d spans: %v", i, err)
		}
		joinSpans(&j, i, run.Spans, wire, serverSpans)
	}
	if n := len(j.Violations); n > 0 {
		res.fail("%d spans do not contain their children, first: %s", n, j.Violations[0])
	}
	if j.Unmatched > 0 {
		res.fail("%d traced round trips have no server span in %s", j.Unmatched, serverFile)
	}
	if j.Orphans > 0 {
		res.note("%d client round trips lie outside every driver call", j.Orphans)
	}
	setLayerMetrics(res, j, ref, tracedOpsPerS)

	traceFile := filepath.Join(o.TraceDir, "trace-"+wl.Name+".json")
	if err := writeJSON(traceFile, j.Spans); err != nil {
		return nil, err
	}
	res.note("%d spans of the first %d ops per client in %s", len(j.Spans), traceFileOps, traceFile)

	rows, err := runLadder(ctx, o, wl, ladderShare*o.Seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", wl.Name, err)
	}
	for _, row := range rows {
		res.set(row.Name+"_ns", "ns", row.Ns, row.Iters)
		res.set(row.Name+"_allocs", "count", row.Allocs, row.Iters)
		res.note("ladder %s: min of %d batches, spread %.1f%%", row.Name, row.Batches, 100*row.Spread)
	}
	// A layer the workload never enters still reports: zero, and said so.
	for _, d := range perLayer() {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.set(d.Name, d.Unit, 0, 0)
			res.note("%s: nothing to report on this workload", d.Name)
		}
	}
	return res, nil
}

func readServerSpans(path string) (map[string]wireSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server span file: %w", err)
	}
	defer f.Close()
	spans, err := readWireSpans(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byTrace := make(map[string]wireSpan, len(spans))
	for _, sp := range spans {
		byTrace[sp.TraceID] = sp
	}
	return byTrace, nil
}

// setLayerMetrics turns the joined sums into the per-layer metrics:
// mean microseconds of self time per op, over every op of the traced
// window. The budget row holds the traced access components against the
// untraced access median.
func setLayerMetrics(res *result, j joined, ref reference, tracedOpsPerS float64) {
	all := j.Access
	all.add(j.Update)
	res.set("client.self_us", "us", all.perOpUs(all.HarnessNs-all.ClientNs), all.Ops)
	res.set("wire.network_us", "us", all.perOpUs(all.ClientNs-all.ServerNs), all.Ops)
	if all.Ops > 0 {
		res.set("wire.round_trips_per_op", "count", float64(all.RoundTrips)/float64(all.Ops), all.Ops)
	}
	res.set("server.unsegmented_us", "us", all.perOpUs(all.UnsegNs), all.Ops)
	for seg, layer := range segmentLayer {
		res.set(layer, "us", all.perOpUs(all.Segment[seg]), all.Ops)
	}
	for seg := range all.Segment {
		if _, ok := segmentLayer[seg]; !ok {
			res.note("new segment %q (%.3g us/op) belongs to no layer", seg, all.perOpUs(all.Segment[seg]))
		}
	}
	if _, ok := all.Segment["compute"]; !ok && all.Ops > 0 {
		res.note("segment \"compute\", which every partition carries, was never reported")
	}
	if ref.OpsPerS > 0 {
		res.set("obs.trace_overhead_ratio", "ratio", tracedOpsPerS/ref.OpsPerS, all.Ops)
	}
	if ref.AccessP50Us > 0 {
		// The typical traced access, layer by layer, against the untraced
		// median: what is left is what the layers do not account for.
		// Tracing costs time too, so the share can be negative.
		explained := median(j.AccessSelf) + median(j.AccessNetwork) + median(j.AccessServer)
		unexplained := (ref.AccessP50Us - explained) / ref.AccessP50Us
		res.set("budget.unexplained_share", "ratio", unexplained, j.Access.Ops)
		if unexplained > 0.15 {
			res.note("budget: the layers of a typical traced access sum to %.1f us of the untraced median of %.1f us; share %.2f is above 0.15",
				explained, ref.AccessP50Us, unexplained)
		}
	}
}

// worldLayers reads the count-based layers of a world workload: the
// priced counters of the traced world, and the hit ratio from the ledger
// of a small world of the same shape.
func worldLayers(ctx context.Context, t *target, o options, all clientRun, res *result) {
	ledgerOps := 1000.0 // its ledger must fit one frame
	if o.Quick {
		ledgerOps = 100
	}
	stats := checkWorldStats(ctx, t.ctl, t.world, all, res)
	if stats == nil || stats.Ops == 0 {
		return
	}
	ops := float64(stats.Ops)
	c := stats.Counters
	res.set("metric.page_reads_per_op", "count", float64(c.PageReads)/ops, stats.Ops)
	res.set("metric.page_writes_per_op", "count", float64(c.PageWrites)/ops, stats.Ops)
	res.set("metric.screens_per_op", "count", float64(c.Screens)/ops, stats.Ops)
	res.set("metric.delta_ops_per_op", "count", float64(c.DeltaOps)/ops, stats.Ops)
	res.set("metric.invalidations_per_op", "count", float64(c.Invalidations)/ops, stats.Ops)
	if stats.Tuples > 0 {
		res.set("query.screens_per_row", "count", float64(c.Screens)/float64(stats.Tuples), stats.Tuples)
	}

	p := t.wl.Params()
	p.K, p.Q = float64(int(ledgerOps*p.K/(p.K+p.Q)+0.5)), float64(int(ledgerOps*p.Q/(p.K+p.Q)+0.5))
	small, err := servedIdentityRun(ctx, t, p, true)
	if err != nil {
		res.note("ledger world: %v", err)
		return
	}
	hits := 0
	sc := bufio.NewScanner(bytes.NewReader(small.Ledger))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
			Kind string `json:"kind"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "ledger.event" && ev.Kind == "hit" {
			hits++
		}
	}
	if small.Queries > 0 {
		res.set("cache.hit_ratio", "ratio", float64(hits)/float64(small.Queries), small.Queries)
	}
}

// ladderRow is one row of the ladder's output.
type ladderRow struct {
	Name    string  `json:"name"`
	Ns      float64 `json:"ns"`
	Allocs  float64 `json:"allocs"`
	Spread  float64 `json:"spread"`
	Batches int     `json:"batches"`
	Iters   int     `json:"iters"`
}

// runLadder runs the ladder binary and decodes its rows.
func runLadder(ctx context.Context, o options, wl spec.Workload, seconds float64) ([]ladderRow, error) {
	cmd := exec.CommandContext(ctx, o.Ladder,
		"-workload", wl.Name, "-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(seconds))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	var rows []ladderRow
	if err := json.Unmarshal(out, &rows); err != nil {
		return nil, fmt.Errorf("decode ladder output: %w", err)
	}
	return rows, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
