// Package artifact is the one loader of every artifact the system
// writes. Span traces, wire traces, flight dumps, contention profiles and
// efficacy ledgers share the typed-line JSONL convention, and a file may
// mix them; Load returns every record kind, so no reader can skip
// another reader's records. It lives apart from package obs so that obs,
// and the client and benchmark harness that import it, keep depending on
// internal/metric alone.
package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"dbproc/internal/cache"
	"dbproc/internal/obs"
	"dbproc/internal/telemetry"
)

// Set is every record the loader found, by kind, merged across the files
// it read.
type Set struct {
	Spans      []obs.SpanRecord
	Runs       []obs.RunRecord
	Breakdowns []obs.BreakdownRecord
	// WireSpans are the wall-clock served-request spans
	// (docs/TRACING.md); client and server files both contribute here.
	WireSpans []obs.WireSpanRecord
	// Dumps holds one flight-recorder dump per "flight" header, with
	// the "event" lines that follow it.
	Dumps      []telemetry.Dump
	Contention []telemetry.ContentionRecord
	// Ledgers holds one section per "ledger" header, with the
	// "ledger.event" lines that follow it.
	Ledgers []cache.LedgerRun
	// Documents are whole-file JSON documents (a BENCH_scenarios.json
	// report), kept raw for the reader that knows their shape.
	Documents []Document
}

// Document is one file that holds a single JSON document rather than
// JSON Lines.
type Document struct {
	Name string
	Data []byte
}

// Load reads the named files into one Set.
func Load(paths ...string) (*Set, error) {
	s := &Set{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := s.Add(path, data); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add parses one file's contents, named name in errors, into s. A file
// that is one JSON value without a "type" field is a Document. Otherwise
// every non-blank line must be a record of a known type: a line with an
// unknown or missing "type" is an error naming the file and the line,
// never skipped.
func (s *Set) Add(name string, data []byte) error {
	var probe struct {
		Type *string `json:"type"`
	}
	if json.Valid(data) && json.Unmarshal(data, &probe) == nil && probe.Type == nil {
		s.Documents = append(s.Documents, Document{Name: name, Data: data})
		return nil
	}
	dump, ledger := -1, -1 // this file's open sections
	for n, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := s.addLine(line, &dump, &ledger); err != nil {
			return fmt.Errorf("%s: line %d: %w", name, n+1, err)
		}
	}
	return nil
}

func (s *Set) addLine(line []byte, dump, ledger *int) error {
	var probe struct {
		Type *string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return err
	}
	if probe.Type == nil {
		return fmt.Errorf("record has no type")
	}
	switch *probe.Type {
	case obs.RecordSpan:
		return decodeInto(line, &s.Spans)
	case obs.RecordRun:
		return decodeInto(line, &s.Runs)
	case obs.RecordBreakdown:
		return decodeInto(line, &s.Breakdowns)
	case obs.RecordWireSpan:
		return decodeInto(line, &s.WireSpans)
	case telemetry.RecordContention:
		return decodeInto(line, &s.Contention)
	case telemetry.RecordFlight:
		var h telemetry.FlightRecord
		if err := json.Unmarshal(line, &h); err != nil {
			return err
		}
		*dump = len(s.Dumps)
		s.Dumps = append(s.Dumps, telemetry.Dump{Header: h})
	case telemetry.RecordEvent:
		if *dump < 0 {
			return fmt.Errorf("event before its flight header")
		}
		return decodeInto(line, &s.Dumps[*dump].Events)
	case cache.RecordLedger:
		var meta cache.LedgerMeta
		if err := json.Unmarshal(line, &meta); err != nil {
			return err
		}
		*ledger = len(s.Ledgers)
		s.Ledgers = append(s.Ledgers, cache.LedgerRun{Meta: meta})
	case cache.RecordLedgerEvent:
		if *ledger < 0 {
			return fmt.Errorf("ledger event before its ledger header")
		}
		return decodeInto(line, &s.Ledgers[*ledger].Events)
	default:
		return fmt.Errorf("unknown record type %q", *probe.Type)
	}
	return nil
}

// decodeInto decodes one line as a T and appends it to dst.
func decodeInto[T any](line []byte, dst *[]T) error {
	var v T
	if err := json.Unmarshal(line, &v); err != nil {
		return err
	}
	*dst = append(*dst, v)
	return nil
}
