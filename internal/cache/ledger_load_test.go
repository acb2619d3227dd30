package cache_test

import (
	"bytes"
	"math"
	"testing"

	"dbproc/internal/artifact"
	"dbproc/internal/cache"
)

// TestLedgerRoundTrip serializes two runs into one stream and parses
// them back, checking section boundaries, baselines and stats survive.
func TestLedgerRoundTrip(t *testing.T) {
	l1 := cache.NewLedger()
	l1.SetBaseline(1, 7)
	l1.SetBaseline(0, 3)
	l1.Record(cache.LedgerEvent{Entry: 0, Kind: cache.KindComputed, Op: 2, Session: 1, CostMs: 3, Digest: 42})
	l1.Record(cache.LedgerEvent{Entry: 0, Kind: cache.KindHit, Op: 5, Session: 0, CostMs: 0.5})
	l2 := cache.NewLedger()
	l2.Record(cache.LedgerEvent{Entry: -1, Kind: cache.KindMaintained, CostMs: 2})

	var buf bytes.Buffer
	if err := cache.WriteLedger(&buf, cache.LedgerMeta{Strategy: "CI", Model: 1, Clients: 1, Seed: 9, Queries: 2, TotalMs: 3.5}, l1); err != nil {
		t.Fatal(err)
	}
	if err := cache.WriteLedger(&buf, cache.LedgerMeta{Strategy: "RVM", Model: 2, Clients: 8}, l2); err != nil {
		t.Fatal(err)
	}

	a := &artifact.Set{}
	if err := a.Add("ledger.jsonl", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	runs := a.Ledgers
	if len(runs) != 2 {
		t.Fatalf("parsed %d runs, want 2", len(runs))
	}
	r1 := runs[0]
	if r1.Meta.Strategy != "CI" || r1.Meta.Seed != 9 || len(r1.Events) != 2 {
		t.Fatalf("run 1: %+v", r1.Meta)
	}
	// Baselines sorted by entry.
	if len(r1.Meta.Baselines) != 2 || r1.Meta.Baselines[0].Entry != 0 || r1.Meta.Baselines[1].CostMs != 7 {
		t.Fatalf("baselines: %+v", r1.Meta.Baselines)
	}
	if bm := r1.BaselineMap(); bm[1] != 7 {
		t.Fatalf("baseline map: %v", bm)
	}
	if ev := r1.Events[0]; ev.Digest != 42 || ev.Op != 2 || ev.Session != 1 {
		t.Fatalf("event round-trip: %+v", ev)
	}
	if st := r1.Stats(); math.Abs(st.TotalMs-3.5) > 1e-9 {
		t.Fatalf("stats after round-trip: %+v", st)
	}
	if runs[1].Meta.Strategy != "RVM" || len(runs[1].Events) != 1 {
		t.Fatalf("run 2: %+v", runs[1])
	}
}

// TestReadLedgerErrors: an event line before any header is a corrupt
// stream; other record kinds interleave harmlessly.
func TestReadLedgerErrors(t *testing.T) {
	bad := `{"type":"ledger.event","entry":0,"kind":"hit","op":0,"session":0,"cost_ms":1}` + "\n"
	if err := new(artifact.Set).Add("bad.jsonl", []byte(bad)); err == nil {
		t.Fatal("event before header accepted")
	}
	a := &artifact.Set{}
	err := a.Add("mixed.jsonl", []byte(
		`{"type":"flight","reason":"tail"}`+"\n"+
			`{"type":"ledger","strategy":"CI","model":1,"clients":1,"seed":1,"queries":0,"updates":0,"total_ms":0,"baselines":null}`+"\n"+
			`{"type":"span","name":"op.query"}`+"\n"))
	if err != nil || len(a.Ledgers) != 1 {
		t.Fatalf("interleaved stream: %v, %d runs", err, len(a.Ledgers))
	}
}
