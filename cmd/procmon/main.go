// Command procmon watches a running procsim/procbench process through its
// -listen telemetry endpoints: it polls /metrics and /events and renders a
// refreshing terminal dashboard of session activity, per-lock contention
// and operation-latency quantiles (docs/TELEMETRY.md).
//
// Usage:
//
//	procsim -clients 8 -listen :9090 &    # the process under observation
//	procmon -addr http://localhost:9090   # refreshing dashboard
//	procmon -addr ... -interval 2s -n 10  # 10 polls, 2s apart
//	procmon -addr ... -raw                # one poll, raw /metrics text
//	procmon -addr ... -tail 64            # last 64 flight events as JSONL
//	procmon -addr ... -blame              # + critical-path split and top blockers
//	procmon -addr ... -serving            # + served request-type latency quantiles
//
// -raw prints a single scrape verbatim and exits; -tail fetches the
// flight recorder's newest events as JSONL, ready to save and render
// with `procstat`. Both are the scriptable modes scripts/verify.sh's
// telemetry smoke test uses.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"dbproc/internal/artifact"
	"dbproc/internal/telemetry"
)

// sample is one parsed Prometheus text-exposition sample.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseMetrics parses Prometheus text exposition format: comment lines
// are skipped, every other line is `name[{labels}] value`. Lines that do
// not parse are ignored — the dashboard renders what it understands.
func parseMetrics(text string) []sample {
	var out []sample
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
		s := sample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.labels = parseLabels(s.name[i:])
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

// parseLabels parses `{k="v",...}`, undoing the exposition escapes.
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
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
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

// metricSet indexes one scrape for dashboard lookups.
type metricSet struct {
	samples []sample
}

func (m metricSet) value(name string) (float64, bool) {
	for _, s := range m.samples {
		if s.name == name {
			return s.value, true
		}
	}
	return 0, false
}

func (m metricSet) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range m.samples {
		if s.name == name {
			out[s.labels[label]] = s.value
		}
	}
	return out
}

// samplesOf returns every sample of a multi-label series, for panels
// that key on more than one label (the blame table keys on lock +
// holder_session + holder_op).
func (m metricSet) samplesOf(name string) []sample {
	var out []sample
	for _, s := range m.samples {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

func fetch(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(body), nil
}

// render draws one dashboard frame from a scrape and an event tail.
// blame adds the causal-diagnosis panel (critical-path split plus top
// blockers) fed by the dbproc_critpath_* / dbproc_blame_* series.
func render(w io.Writer, addr string, m metricSet, dump *telemetry.Dump, clear, blame, serving bool) {
	if clear {
		fmt.Fprint(w, "\x1b[H\x1b[2J")
	}
	fmt.Fprintf(w, "dbproc procmon — %s\n\n", addr)

	row := func(label, name, unit string) {
		if v, ok := m.value(name); ok {
			fmt.Fprintf(w, "  %-22s %12g %s\n", label, v, unit)
		}
	}
	row("sessions", "dbproc_sessions", "")
	row("inflight ops", "dbproc_sessions_inflight", "")
	row("committed ops", "dbproc_ops_committed_total", "")
	row("goroutines", "dbproc_goroutines", "")
	row("flight events", "dbproc_flight_events_total", "")

	for _, dom := range []struct{ name, label, unit string }{
		{"dbproc_op_latency_wall_ns", "op latency (wall)", "us"},
		{"dbproc_op_latency_sim_ms", "op latency (sim)", "ms"},
	} {
		qs := m.byLabel(dom.name, "quantile")
		if len(qs) == 0 {
			continue
		}
		keys := make([]string, 0, len(qs))
		for q := range qs {
			keys = append(keys, q)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "\n  %s:", dom.label)
		for _, q := range keys {
			v := qs[q]
			if dom.unit == "us" {
				v /= 1e3
			}
			p := q
			if f, err := strconv.ParseFloat(q, 64); err == nil {
				p = strconv.FormatFloat(100*f, 'g', -1, 64)
			}
			fmt.Fprintf(w, "  p%s=%.1f%s", p, v, dom.unit)
		}
		fmt.Fprintln(w)
	}

	// Top locks by accumulated wait.
	waits := m.byLabel("dbproc_lock_wait_seconds_total", "lock")
	if len(waits) > 0 {
		acquires := m.byLabel("dbproc_lock_acquires_total", "lock")
		contended := m.byLabel("dbproc_lock_contended_total", "lock")
		holds := m.byLabel("dbproc_lock_hold_seconds_total", "lock")
		names := make([]string, 0, len(waits))
		for n := range waits {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			if waits[names[i]] != waits[names[j]] {
				return waits[names[i]] > waits[names[j]]
			}
			return names[i] < names[j]
		})
		if len(names) > 8 {
			names = names[:8]
		}
		fmt.Fprintf(w, "\n  %-16s %9s %9s %10s %10s\n", "lock", "acquires", "contended", "wait", "hold")
		for _, n := range names {
			fmt.Fprintf(w, "  %-16s %9.0f %9.0f %8.2fms %8.2fms\n",
				n, acquires[n], contended[n], waits[n]*1e3, holds[n]*1e3)
		}
	}

	if blame {
		renderBlame(w, m)
	}

	if serving {
		renderServing(w, m)
	}

	if dump != nil && len(dump.Events) > 0 {
		fmt.Fprintln(w)
		telemetry.WriteTimeline(w, dump.Events, 0, nil)
	}
}

// renderBlame draws the causal diagnosis panel: the critical-path
// segment split and the top blockers by attributed wall-clock wait.
// Every engine exports its blockers once a lock wait has happened; the
// segment split exists only when the observed process runs with critical
// path profiling on (procsim -critpath; docs/DIAGNOSIS.md).
func renderBlame(w io.Writer, m metricSet) {
	segs := m.byLabel("dbproc_critpath_seconds_total", "segment")
	if len(segs) > 0 {
		var total float64
		for _, v := range segs {
			total += v
		}
		fmt.Fprintf(w, "\n  critical path:")
		for _, name := range []string{"lock_wait", "io", "recompute", "compute"} {
			v, ok := segs[name]
			if !ok {
				continue
			}
			share := 0.0
			if total > 0 {
				share = 100 * v / total
			}
			fmt.Fprintf(w, "  %s=%.2fms (%.0f%%)", name, v*1e3, share)
		}
		fmt.Fprintln(w)
	}

	waits := m.samplesOf("dbproc_blame_wait_seconds_total")
	if len(waits) == 0 {
		if len(segs) == 0 {
			fmt.Fprintf(w, "\n  blame: no lock wait yet (run the observed process with -critpath for the critical-path split)\n")
		}
		return
	}
	counts := map[string]float64{}
	for _, s := range m.samplesOf("dbproc_blame_waits_total") {
		counts[s.labels["lock"]+"\x00"+s.labels["holder_session"]+"\x00"+s.labels["holder_op"]] = s.value
	}
	sort.Slice(waits, func(i, j int) bool {
		if waits[i].value != waits[j].value {
			return waits[i].value > waits[j].value
		}
		return waits[i].labels["lock"] < waits[j].labels["lock"]
	})
	if len(waits) > 8 {
		waits = waits[:8]
	}
	fmt.Fprintf(w, "\n  %-16s %-24s %7s %10s\n", "blamed lock", "holder", "waits", "wait")
	for _, s := range waits {
		lock := s.labels["lock"]
		holder := fmt.Sprintf("session %s (%s)", s.labels["holder_session"], s.labels["holder_op"])
		n := counts[lock+"\x00"+s.labels["holder_session"]+"\x00"+s.labels["holder_op"]]
		fmt.Fprintf(w, "  %-16s %-24s %7.0f %8.2fms\n", lock, holder, n, s.value*1e3)
	}
}

// renderServing draws the served-path panel from procserved's
// dbproc_server_* series: the connection/request counters and, per
// request type, the service-time histogram quantiles
// (dbproc_server_request_seconds{type,quantile}).
func renderServing(w io.Writer, m metricSet) {
	fmt.Fprintf(w, "\n  serving:")
	for _, c := range []struct{ label, name string }{
		{"conns", "dbproc_server_connections"},
		{"requests", "dbproc_server_requests_total"},
		{"errors", "dbproc_server_errors_total"},
		{"cancels", "dbproc_server_cancels_total"},
		{"worlds", "dbproc_server_worlds_open"},
	} {
		if v, ok := m.value(c.name); ok {
			fmt.Fprintf(w, "  %s=%g", c.label, v)
		}
	}
	fmt.Fprintln(w)

	counts := m.byLabel("dbproc_server_request_seconds_count", "type")
	byType := map[string]map[string]float64{}
	for _, s := range m.samplesOf("dbproc_server_request_seconds") {
		typ := s.labels["type"]
		if byType[typ] == nil {
			byType[typ] = map[string]float64{}
		}
		byType[typ][s.labels["quantile"]] = s.value
	}
	if len(byType) == 0 {
		fmt.Fprintf(w, "  serving: no dbproc_server_request_seconds series (is the observed process procserved?)\n")
		return
	}
	types := make([]string, 0, len(byType))
	for typ := range byType {
		types = append(types, typ)
	}
	sort.Slice(types, func(i, j int) bool {
		if counts[types[i]] != counts[types[j]] {
			return counts[types[i]] > counts[types[j]]
		}
		return types[i] < types[j]
	})
	fmt.Fprintf(w, "\n  %-14s %9s %10s %10s %10s %10s\n", "request", "count", "p50", "p90", "p95", "p99")
	for _, typ := range types {
		qs := byType[typ]
		fmt.Fprintf(w, "  %-14s %9.0f %8.2fms %8.2fms %8.2fms %8.2fms\n",
			typ, counts[typ], qs["0.5"]*1e3, qs["0.9"]*1e3, qs["0.95"]*1e3, qs["0.99"]*1e3)
	}
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9090", "base URL of the -listen telemetry endpoint")
	interval := flag.Duration("interval", time.Second, "polling interval")
	polls := flag.Int("n", 0, "number of polls before exiting (0 = until interrupted)")
	events := flag.Int("events", 8, "flight-recorder events to tail per frame (0 = none)")
	raw := flag.Bool("raw", false, "poll /metrics once, print the raw scrape, and exit")
	tail := flag.Int("tail", 0, "fetch the last K flight events as raw JSONL and exit (save and render with procstat)")
	blame := flag.Bool("blame", false, "add the causal-diagnosis panel: top blockers, and the critical-path split when the observed process runs with -critpath")
	serving := flag.Bool("serving", false, "add the served-path panel: connection counters and per-request-type service-time quantiles (observe procserved -telemetry)")
	flag.Parse()

	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *raw || *tail > 0 {
		url := base + "/metrics"
		if *tail > 0 {
			url = fmt.Sprintf("%s/events?n=%d", base, *tail)
		}
		body, err := fetch(ctx, client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "procmon: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(body)
		return
	}

	for n := 0; *polls <= 0 || n < *polls; n++ {
		if n > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(*interval):
			}
		}
		body, err := fetch(ctx, client, base+"/metrics")
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fmt.Fprintf(os.Stderr, "procmon: %v\n", err)
			os.Exit(1)
		}
		var dump *telemetry.Dump
		if *events > 0 {
			if tail, err := fetch(ctx, client, fmt.Sprintf("%s/events?n=%d", base, *events)); err == nil {
				a := &artifact.Set{}
				if a.Add("/events", []byte(tail)) == nil && len(a.Dumps) > 0 {
					dump = &a.Dumps[0]
				}
			}
		}
		render(os.Stdout, base, metricSet{parseMetrics(body)}, dump, n > 0 || *polls != 1, *blame, *serving)
	}
}
