package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type staticSource []Metric

func (s staticSource) TelemetryMetrics() []Metric { return s }

func TestHubMetricsEndpoint(t *testing.T) {
	h := NewHub()
	rec := NewRecorder(16)
	h.SetRecorder(rec)
	rec.Op(EvOpCommit, 0, 0, "q", 0, 0)
	h.SetSource(staticSource{
		Counter("dbproc_ops_committed_total", "Committed ops.", 42, nil),
		Counter("dbproc_lock_wait_seconds_total", "Lock wait.", 0.5, map[string]string{"lock": "rel:r1"}),
		Counter("dbproc_lock_wait_seconds_total", "Lock wait.", 0.25, map[string]string{"lock": `we"ird\`}),
	})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE dbproc_up gauge",
		"dbproc_up 1",
		"dbproc_goroutines ",
		"dbproc_flight_events_total 1",
		"# HELP dbproc_ops_committed_total Committed ops.",
		"dbproc_ops_committed_total 42",
		`dbproc_lock_wait_seconds_total{lock="rel:r1"} 0.5`,
		`dbproc_lock_wait_seconds_total{lock="we\"ird\\"} 0.25`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// One TYPE header per family even with several label sets.
	if n := strings.Count(body, "# TYPE dbproc_lock_wait_seconds_total"); n != 1 {
		t.Errorf("TYPE header appears %d times", n)
	}
}

func TestHubEventsEndpoint(t *testing.T) {
	h := NewHub()
	rec := NewRecorder(64)
	h.SetRecorder(rec)
	for i := 0; i < 10; i++ {
		rec.Op(EvOpCommit, i%2, i, "q", 0, 0)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	d, err := ReadDump(strings.NewReader(get(t, srv.URL+"/events")))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 10 || d.Headers[0].Reason != "tail" {
		t.Fatalf("tail: %d events, header %+v", len(d.Events), d.Headers)
	}

	d, err = ReadDump(strings.NewReader(get(t, srv.URL+"/events?n=3")))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 3 || d.Events[0].Seq != 7 {
		t.Fatalf("n=3 tail: %+v", d.Events)
	}
	if d.Headers[0].Dropped != 7 {
		t.Fatalf("n=3 dropped = %d, want 7", d.Headers[0].Dropped)
	}
}

func TestHubEventsWithoutRecorder(t *testing.T) {
	srv := httptest.NewServer(NewHub().Handler())
	defer srv.Close()
	d, err := ReadDump(strings.NewReader(get(t, srv.URL+"/events")))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Headers) != 1 || d.Headers[0].Events != 0 {
		t.Fatalf("header = %+v", d.Headers)
	}
}

func TestHubDebugEndpointsAndIndex(t *testing.T) {
	srv := httptest.NewServer(NewHub().Handler())
	defer srv.Close()
	if body := get(t, srv.URL+"/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars missing memstats")
	}
	if body := get(t, srv.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ missing goroutine profile link")
	}
	if body := get(t, srv.URL+"/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index missing /metrics")
	}
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", resp.StatusCode)
	}
}

func TestHubListenAndServeClose(t *testing.T) {
	h := NewHub()
	addr, err := h.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := get(t, fmt.Sprintf("http://%s/metrics", addr))
	if !strings.Contains(body, "dbproc_up 1") {
		t.Fatalf("live /metrics:\n%s", body)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	var nilHub *Hub
	if err := nilHub.Close(); err != nil {
		t.Fatal(err)
	}
	nilHub.SetSource(nil)
	nilHub.SetRecorder(nil)
}

func TestWriteMetricsGrouping(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, []Metric{
		Gauge("b_metric", "B.", 2, nil),
		Counter("a_metric", "A.", 1, map[string]string{"x": "1"}),
		Counter("a_metric", "", 3, map[string]string{"x": "2"}),
	})
	out := buf.String()
	// Families sorted by name, samples kept in insertion order.
	if !strings.Contains(out, "# HELP a_metric A.\n# TYPE a_metric counter\na_metric{x=\"1\"} 1\na_metric{x=\"2\"} 3\n") {
		t.Fatalf("grouping:\n%s", out)
	}
	if strings.Index(out, "a_metric") > strings.Index(out, "b_metric") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

// TestHubContentTypes pins the Content-Type of every hand-written
// handler: Prometheus text on /metrics, JSONL on /events, plain text on
// the index. A missing header makes Go sniff the body, which misreports
// JSONL tails as text/plain and breaks strict scrapers.
func TestHubContentTypes(t *testing.T) {
	h := NewHub()
	h.SetRecorder(NewRecorder(16))
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	for _, tc := range []struct{ path, want string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/events", "application/jsonl"},
		{"/", "text/plain; charset=utf-8"},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != tc.want {
			t.Errorf("GET %s Content-Type = %q, want %q", tc.path, ct, tc.want)
		}
	}
}

// TestHubEventsTailComplete verifies the /events body arrives as
// complete JSONL: every line (including the last) parses on its own and
// the body ends with a newline — the buffered writer must flush the
// final event before the handler returns.
func TestHubEventsTailComplete(t *testing.T) {
	h := NewHub()
	rec := NewRecorder(256)
	h.SetRecorder(rec)
	for i := 0; i < 200; i++ {
		rec.Op(EvOpCommit, i%4, i, "q", int64(i), 0)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	body := get(t, srv.URL+"/events")
	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("body does not end in newline: %q", body[len(body)-40:])
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != 201 { // header + 200 events
		t.Fatalf("got %d lines, want 201", len(lines))
	}
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
