package artifact

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadMixedKinds: one file may carry every record kind, and the
// loader keeps each: flight events attach to the dump header before
// them and ledger events to the ledger header before them.
func TestLoadMixedKinds(t *testing.T) {
	in := strings.Join([]string{
		`{"type":"span","run":"ci","name":"op.query","dur_ms":3}`,
		`{"type":"run","run":"ci","strategy":"s","model":"m"}`,
		`{"type":"breakdown","run":"ci","components":{}}`,
		`{"type":"wire_span","side":"server","trace_id":"t","span_id":"s"}`,
		`{"type":"contention","run":"ci","locks":[{"name":"rel:r1","contended":2}]}`,
		`{"type":"flight","reason":"a","events":1}`,
		`{"type":"event","i":0,"kind":"op.commit","session":1,"seq":2}`,
		``,
		`{"type":"ledger","strategy":"CI","model":1}`,
		`{"type":"ledger.event","entry":4,"kind":"hit","cost_ms":1}`,
		`{"type":"flight","reason":"b","events":2}`,
		`{"type":"event","i":1,"kind":"op.begin","session":0,"seq":-1}`,
		`{"type":"event","i":2,"kind":"op.commit","session":0,"seq":3}`,
	}, "\n")
	a := &Set{}
	if err := a.Add("mixed.jsonl", []byte(in)); err != nil {
		t.Fatal(err)
	}
	if len(a.Spans) != 1 || len(a.Runs) != 1 || len(a.Breakdowns) != 1 || len(a.WireSpans) != 1 {
		t.Fatalf("trace records: %d spans, %d runs, %d breakdowns, %d wire spans",
			len(a.Spans), len(a.Runs), len(a.Breakdowns), len(a.WireSpans))
	}
	if len(a.Contention) != 1 || a.Contention[0].Locks[0].Contended != 2 {
		t.Fatalf("contention = %+v", a.Contention)
	}
	if len(a.Dumps) != 2 || len(a.Dumps[0].Events) != 1 || len(a.Dumps[1].Events) != 2 ||
		a.Dumps[1].Header.Reason != "b" || a.Dumps[1].Events[0].Seq != -1 {
		t.Fatalf("dumps = %+v", a.Dumps)
	}
	if len(a.Ledgers) != 1 || len(a.Ledgers[0].Events) != 1 || a.Ledgers[0].Events[0].Entry != 4 {
		t.Fatalf("ledgers = %+v", a.Ledgers)
	}
	if len(a.Documents) != 0 {
		t.Fatalf("JSONL read as a document")
	}
}

// TestLoadRejectsUnknownType: a record whose type is unknown or missing,
// or an event with no header before it in its file, is an error naming
// the file and the line — never skipped, so no reader prints a report
// that silently lacks it.
func TestLoadRejectsUnknownType(t *testing.T) {
	ok := `{"type":"run","run":"r","strategy":"s","model":"m"}`
	for _, tc := range []struct{ line, want string }{
		{`{"type":"future-record","x":1}`, `unknown record type "future-record"`},
		{`{"run":"r"}`, "record has no type"},
		{`{"type":"event","kind":"op.commit"}`, "event before its flight header"},
		{`{"type":"ledger.event","entry":0}`, "ledger event before its ledger header"},
		{`{"type":"span"`, "unexpected end of JSON input"},
	} {
		err := new(Set).Add("t.jsonl", []byte(ok+"\n"+tc.line+"\n"))
		if err == nil || !strings.Contains(err.Error(), "t.jsonl: line 2: "+tc.want) {
			t.Errorf("%s: err = %v, want %q at t.jsonl line 2", tc.line, err, tc.want)
		}
	}
	// A header in one file does not open a section in the next.
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(first, []byte(`{"type":"flight","reason":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(second, []byte(`{"type":"event","kind":"op.commit"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(first, second); err == nil || !strings.Contains(err.Error(), "b.jsonl: line 1") {
		t.Errorf("event after another file's header: err = %v", err)
	}
}

// TestLoadDocument: an indented JSON document is kept whole, not read
// line by line.
func TestLoadDocument(t *testing.T) {
	doc := "{\n  \"scale\": 1,\n  \"verdicts\": []\n}\n"
	a := &Set{}
	if err := a.Add("report.json", []byte(doc)); err != nil {
		t.Fatal(err)
	}
	if len(a.Documents) != 1 || a.Documents[0].Name != "report.json" || string(a.Documents[0].Data) != doc {
		t.Fatalf("documents = %+v", a.Documents)
	}
}
