package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/artifact"
	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/engine"
	"dbproc/internal/experiments"
	"dbproc/internal/obs"
	"dbproc/internal/server"
	"dbproc/internal/sim"
	"dbproc/internal/telemetry"
)

// smallConfig is a world small enough to run in a unit test.
func smallConfig(s costmodel.Strategy) sim.Config {
	p := costmodel.Default()
	p.N, p.F = 10_000, 0.01
	p.N1, p.N2 = 10, 10
	p.K, p.Q, p.L = 15, 15, 5
	return sim.Config{Params: p, Model: costmodel.Model1, Strategy: s, Seed: 11}
}

// procstat writes each file into a temporary directory, runs procstat
// on them with the given flags, and returns its output.
func procstat(t *testing.T, flags []string, files map[string][]byte) (string, error) {
	t.Helper()
	dir := t.TempDir()
	args := append([]string(nil), flags...)
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, path)
	}
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func encode(t *testing.T, records ...any) []byte {
	t.Helper()
	b, err := obs.EncodeJSONL(records...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sequentialTrace is what procsim -trace writes for one sequential run.
func sequentialTrace(t *testing.T) []byte {
	cfg := smallConfig(costmodel.CacheInvalidate)
	cfg.Tracer = obs.NewTracer()
	w := sim.Build(cfg)
	res := w.Run()
	records := []any{
		obs.RunRecord{Type: obs.RecordRun, Run: "ci", Strategy: cfg.Strategy.String(), Model: cfg.Model.String(),
			Seed: cfg.Seed, Queries: res.Queries, Updates: res.Updates,
			MeasuredMsPerQuery: res.MsPerQuery, PredictedMsPerQuery: res.PredictedMs},
		obs.BreakdownToRecord("ci", w.Meter().Breakdown(), w.Meter().Costs()),
	}
	for _, sp := range cfg.Tracer.Records("ci") {
		records = append(records, sp)
	}
	return encode(t, records...)
}

// concurrentTrace is what procsim -clients 2 -trace writes: spans and
// one contention record per run, and no run records.
func concurrentTrace(t *testing.T) []byte {
	opt := engine.Options{Clients: 2, Tracer: obs.NewTracer()}
	res := engine.New(smallConfig(costmodel.UpdateCacheRVM), opt).Run(context.Background())
	records := []any{}
	for _, sp := range opt.Tracer.Records("uc-rvm") {
		records = append(records, sp)
	}
	records = append(records, telemetry.ContentionRecord{
		Type: telemetry.RecordContention, Run: "uc-rvm", Locks: engine.ContentionJSON(res.Contention)})
	return encode(t, records...)
}

// ledgerFile is what procsim -ledger writes for two caching strategies.
func ledgerFile(t *testing.T) []byte {
	var buf bytes.Buffer
	for _, s := range []costmodel.Strategy{costmodel.CacheInvalidate, costmodel.UpdateCacheAVM} {
		cfg := smallConfig(s)
		cfg.Ledger = cache.NewLedger()
		res := sim.Run(cfg)
		meta := cache.LedgerMeta{Strategy: s.String(), Model: int(cfg.Model), Clients: 1,
			Seed: cfg.Seed, Queries: res.Queries, Updates: res.Updates, TotalMs: res.TotalMs}
		if err := cache.WriteLedger(&buf, meta, cfg.Ledger); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// flightDump is a recorder dump holding a blamed lock wait, a detector
// firing and a serializability violation.
func flightDump(t *testing.T) []byte {
	rec := telemetry.NewRecorder(64)
	rec.Record(telemetry.Event{Kind: telemetry.EvLockAcquire, Session: 1, Seq: -1, Name: "rel:r1",
		WaitNs: 2_000_000, Detail: "held by session 0 (update)"})
	rec.Op(telemetry.EvOpCommit, 1, 4, "query", 0, 0)
	rec.Record(telemetry.Event{Kind: telemetry.EvDetector, Session: -1, Seq: -1, Name: "p99", Detail: "p99 over budget"})
	rec.Record(telemetry.Event{Kind: telemetry.EvViolation, Session: -1, Seq: -1, Detail: "no serial order", Seqs: []int{4}})
	var buf bytes.Buffer
	if err := rec.DumpJSONL(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireTrace drives one traced statement through a loopback server and
// returns the client and server halves of its wire trace.
func wireTrace(t *testing.T) (cli, srv []byte) {
	var cliBuf, srvBuf bytes.Buffer
	s := server.New(server.Options{TraceSink: obs.NewWireSpanSink(&srvBuf)})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cn, err := client.DialTraced(addr, client.NewTracer(obs.NewWireSpanSink(&cliBuf)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cn.Exec(context.Background(), "create emp (tid, age) cluster on age"); err != nil {
		t.Fatal(err)
	}
	cn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return cliBuf.Bytes(), srvBuf.Bytes()
}

// scenarioFile re-encodes the checked-in scenarios report with the
// writer that produced it.
func scenarioFile(t *testing.T) []byte {
	data, err := os.ReadFile("../../BENCH_scenarios.json")
	if err != nil {
		t.Skipf("benchmark artifact not present: %v", err)
	}
	var rep experiments.ScenarioBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Section markers, one per artifact kind.
var (
	traceSections    = []string{"ci           Cache and Invalidate", "per-operation latency", "span totals by run:", "breakdown [ci]:", "model drift"}
	contentionMarker = "lock contention [uc-rvm]"
	flightSections   = []string{`== flight dump, reason "test"`, "detector fired: p99", "rows marked *", "serializability violation", "top blockers", "[waited on update footprint]"}
	ledgerSections   = []string{"== run 1: Cache and Invalidate", "dominant bottleneck:", "net benefit vs always-recompute baselines", "== strategy verdict: model 1"}
	wireSections     = []string{"wire check: ", "server segments sum to wall", "wire trace: merged 1 client + 1 server spans, 1 pairs"}
	scenarioSections = []string{"caching winner", "ledger ms", "re-derived from their row evidence and confirmed"}
)

func TestTraceSections(t *testing.T) {
	out, err := procstat(t, nil, map[string][]byte{"trace.jsonl": sequentialTrace(t)})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, traceSections...)
}

// TestConcurrentTraceContention: a -clients trace carries contention
// records beside its spans, and they render.
func TestConcurrentTraceContention(t *testing.T) {
	out, err := procstat(t, nil, map[string][]byte{"trace.jsonl": concurrentTrace(t)})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, contentionMarker, "rel:r1", `run "uc-rvm"`)
}

func TestFlightSections(t *testing.T) {
	out, err := procstat(t, nil, map[string][]byte{"flight.jsonl": flightDump(t)})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, flightSections...)
}

// TestLedgerSections: a ledger renders its diagnosis and verdict, never
// an empty trace report.
func TestLedgerSections(t *testing.T) {
	out, err := procstat(t, nil, map[string][]byte{"ledger.jsonl": ledgerFile(t)})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, ledgerSections...)
	if strings.Contains(out, "(no run records)") {
		t.Errorf("ledger rendered as an empty trace:\n%s", out)
	}
}

func TestWireSections(t *testing.T) {
	cli, srv := wireTrace(t)
	chrome := filepath.Join(t.TempDir(), "merged.json")
	out, err := procstat(t, []string{"-chrome", chrome}, map[string][]byte{"client.jsonl": cli, "server.jsonl": srv})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, wireSections...)
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"ph":"s"`); n != 2 {
		t.Errorf("merged trace has %d flow starts, want 2 (request and response arrow)", n)
	}
}

// TestTamperedWireSpanFails: a server span whose segments no longer sum
// to its wall time fails the run.
func TestTamperedWireSpanFails(t *testing.T) {
	_, srv := wireTrace(t)
	a := &artifact.Set{}
	if err := a.Add("server.jsonl", srv); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewWireSpanSink(&buf)
	for _, sp := range a.WireSpans {
		sp.DurNs++
		if err := sink.Write(sp); err != nil {
			t.Fatal(err)
		}
	}
	_, err := procstat(t, nil, map[string][]byte{"server.jsonl": buf.Bytes()})
	if err == nil || !strings.Contains(err.Error(), "segments sum") {
		t.Fatalf("tampered wire span: err = %v", err)
	}
}

func TestScenarioSections(t *testing.T) {
	out, err := procstat(t, nil, map[string][]byte{"scenarios.json": scenarioFile(t)})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, scenarioSections...)
}

// TestMixedFileRendersEverySection: one file holding every JSONL kind
// renders every kind's sections.
func TestMixedFileRendersEverySection(t *testing.T) {
	cli, srv := wireTrace(t)
	mixed := bytes.Join([][]byte{sequentialTrace(t), concurrentTrace(t), flightDump(t), ledgerFile(t), cli, srv}, nil)
	out, err := procstat(t, nil, map[string][]byte{"mixed.jsonl": mixed, "scenarios.json": scenarioFile(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, sections := range [][]string{traceSections, {contentionMarker}, flightSections, ledgerSections, wireSections, scenarioSections} {
		mustContain(t, out, sections...)
	}
}

// TestUnknownRecordFails: a record of unknown or missing type fails the
// run with the file and line named, rather than being skipped.
func TestUnknownRecordFails(t *testing.T) {
	trace := sequentialTrace(t)
	lines := bytes.Count(trace, []byte("\n"))
	for _, bad := range []string{`{"type":"spam","x":1}`, `{"name":"op.query","dur_ms":1}`} {
		_, err := procstat(t, nil, map[string][]byte{"t.jsonl": append(append([]byte(nil), trace...), bad+"\n"...)})
		if err == nil || !strings.Contains(err.Error(), "t.jsonl: line "+strconv.Itoa(lines+1)) {
			t.Errorf("%s: err = %v, want it named at line %d", bad, err, lines+1)
		}
	}
}
