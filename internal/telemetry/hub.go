package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric is one sample exposed on /metrics. Type is "counter" or
// "gauge" (Prometheus text exposition types).
type Metric struct {
	Name   string
	Help   string
	Type   string
	Labels map[string]string
	Value  float64
}

// Counter and Gauge build a Metric of the respective type.
func Counter(name, help string, value float64, labels map[string]string) Metric {
	return Metric{Name: name, Help: help, Type: "counter", Labels: labels, Value: value}
}

func Gauge(name, help string, value float64, labels map[string]string) Metric {
	return Metric{Name: name, Help: help, Type: "gauge", Labels: labels, Value: value}
}

// Source supplies the current metric samples for a scrape. The engine
// implements this; the hub polls it on every /metrics request.
type Source interface {
	TelemetryMetrics() []Metric
}

// Hub is the live ops endpoint: an HTTP server exposing Prometheus-text
// /metrics, expvar /debug/vars, /debug/pprof, and the flight-recorder
// tail at /events. A Hub outlives individual runs — SetSource swaps in
// the current run's engine, so a bench sweeping many configurations
// serves whichever run is live.
type Hub struct {
	mu  sync.Mutex
	src Source
	rec *Recorder

	srv *http.Server
	ln  net.Listener
}

// NewHub returns an unstarted hub.
func NewHub() *Hub { return &Hub{} }

// SetSource installs (or replaces) the metric source. Nil-safe.
func (h *Hub) SetSource(src Source) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.src = src
	h.mu.Unlock()
}

// SetRecorder installs the flight recorder served at /events. Nil-safe.
func (h *Hub) SetRecorder(rec *Recorder) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.rec = rec
	h.mu.Unlock()
}

// Handler returns the hub's mux. The pprof handlers are registered on
// this mux explicitly rather than on http.DefaultServeMux, so importing
// this package does not pollute the global mux.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.serveMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/events", h.serveEvents)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "dbproc telemetry\n\n/metrics\n/debug/vars\n/debug/pprof/\n/events?n=100\n")
	})
	return mux
}

// ListenAndServe binds addr (":0" picks a free port), prints the bound
// address to stderr in a greppable form, and serves in the background.
// Returns the bound address.
func (h *Hub) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.ln = ln
	h.srv = &http.Server{Handler: h.Handler(), ReadHeaderTimeout: 5 * time.Second}
	srv := h.srv
	h.mu.Unlock()
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "telemetry: listening on http://%s\n", bound)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "telemetry: serve: %v\n", err)
		}
	}()
	return bound, nil
}

// Close shuts the server down, waiting briefly for in-flight requests.
func (h *Hub) Close() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	srv := h.srv
	h.srv = nil
	h.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func (h *Hub) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	h.mu.Lock()
	src, rec := h.src, h.rec
	h.mu.Unlock()

	ms := []Metric{
		Gauge("dbproc_up", "Whether the dbproc telemetry hub is serving.", 1, nil),
		Gauge("dbproc_goroutines", "Goroutines in the process.", float64(runtime.NumGoroutine()), nil),
	}
	if rec != nil {
		ms = append(ms, Counter("dbproc_flight_events_total",
			"Events recorded by the flight recorder (including overwritten).",
			float64(rec.Len()), nil))
	}
	if src != nil {
		ms = append(ms, src.TelemetryMetrics()...)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, ms)
}

// WriteMetrics renders samples in Prometheus text exposition format,
// grouped by metric name with one HELP/TYPE header per family.
func WriteMetrics(w interface{ Write([]byte) (int, error) }, ms []Metric) {
	byName := map[string][]Metric{}
	var names []string
	for _, m := range ms {
		if _, ok := byName[m.Name]; !ok {
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := byName[name]
		if fam[0].Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, fam[0].Help)
		}
		if fam[0].Type != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].Type)
		}
		for _, m := range fam {
			fmt.Fprintf(w, "%s%s %s\n", name, formatLabels(m.Labels),
				strconv.FormatFloat(m.Value, 'g', -1, 64))
		}
	}
}

// ParseMetrics reads Prometheus text exposition, as WriteMetrics writes
// it, back into samples (name, labels, value; Help and Type are left
// empty). Comment lines, and any line that is not `name[{labels}]
// value`, are skipped, so a reader renders what it understands.
func ParseMetrics(text string) []Metric {
	var out []Metric
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		m := Metric{Name: line[:sp], Value: v}
		if i := strings.IndexByte(m.Name, '{'); i >= 0 {
			m.Labels = parseLabels(m.Name[i:])
			m.Name = m.Name[:i]
		}
		out = append(out, m)
	}
	return out
}

// parseLabels parses `{k="v",...}`, undoing escapeLabel.
func parseLabels(s string) map[string]string {
	labels := map[string]string{}
	s = strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	for len(s) > 0 {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			break
		}
		key := s[:eq]
		s = s[eq+2:]
		var b strings.Builder
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					b.WriteByte('\n')
				} else {
					b.WriteByte(s[i])
				}
				continue
			}
			if s[i] == '"' {
				s = strings.TrimPrefix(s[i+1:], ",")
				break
			}
			b.WriteByte(s[i])
		}
		labels[key] = b.String()
	}
	return labels
}

func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// serveEvents streams the flight-recorder tail as JSONL: the dump header
// then the newest events. ?n=K limits the tail to the last K events.
func (h *Hub) serveEvents(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	rec := h.rec
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/jsonl")
	// Buffer the tail so a large ring streams in full writes and the
	// final line is flushed before the handler returns (an unbuffered
	// encoder on a hijacked/slow connection could truncate the tail).
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	if rec == nil {
		json.NewEncoder(bw).Encode(FlightRecord{Type: RecordFlight, Reason: "tail", Events: 0})
		return
	}
	events, dropped := rec.Snapshot()
	if s := r.URL.Query().Get("n"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(events) {
			dropped += int64(len(events) - n)
			events = events[len(events)-n:]
		}
	}
	enc := json.NewEncoder(bw)
	enc.Encode(FlightRecord{
		Type:        RecordFlight,
		Reason:      "tail",
		Events:      len(events),
		Dropped:     dropped,
		StartUnixNs: rec.start.UnixNano(),
	})
	for _, ev := range events {
		enc.Encode(EventRecord{Type: RecordEvent, Event: ev})
	}
}
