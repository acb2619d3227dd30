package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dbproc/internal/artifact"
	"dbproc/internal/telemetry"
)

// scrape is one reading of a live source's /metrics.
type scrape struct {
	url     string
	metrics metrics
}

// readLive makes one GET of base's /metrics and one of its /events tail:
// the newest topK events, or the whole ring when topK <= 0. The tail
// joins a as an ordinary flight dump and the dbproc_lock_* series as
// contention records, so both render through the sections a file's
// would; the scrape keeps the rest for scrapeReport.
func readLive(base string, topK int, a *artifact.Set) (scrape, error) {
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 5 * time.Second}
	text, err := get(client, base+"/metrics")
	if err != nil {
		return scrape{}, err
	}
	events := base + "/events"
	if topK > 0 {
		events += "?n=" + strconv.Itoa(topK)
	}
	tail, err := get(client, events)
	if err != nil {
		return scrape{}, err
	}
	if err := a.Add(events, tail); err != nil {
		return scrape{}, err
	}
	s := scrape{base, telemetry.ParseMetrics(string(text))}
	a.Contention = append(a.Contention, s.metrics.contention(base)...)
	return s, nil
}

// get fetches url, reading at most 16 MiB of body; a failed request or
// a status other than 200 is an error naming the URL.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}

// metrics is one parsed /metrics scrape.
type metrics []telemetry.Metric

// value returns the first sample of the series name.
func (ms metrics) value(name string) (float64, bool) {
	if s := ms.of(name); len(s) > 0 {
		return s[0].Value, true
	}
	return 0, false
}

// of returns every sample of the series name.
func (ms metrics) of(name string) metrics {
	var out metrics
	for _, m := range ms {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// byLabel maps the series name's samples by one label's value.
func (ms metrics) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms.of(name) {
		out[m.Labels[label]] = m.Value
	}
	return out
}

// contention folds the dbproc_lock_* series into one contention record
// per world (procserved labels each open world's engine series with its
// world id), named after the source, its locks in the exported order
// (by wait).
func (ms metrics) contention(url string) []telemetry.ContentionRecord {
	series := func(name string) map[string]float64 {
		out := map[string]float64{}
		for _, m := range ms.of(name) {
			out[fmt.Sprint(m.Labels)] = m.Value
		}
		return out
	}
	contended, wait, hold, maxWait := series("dbproc_lock_contended_total"),
		series("dbproc_lock_wait_seconds_total"), series("dbproc_lock_hold_seconds_total"),
		series("dbproc_lock_max_wait_seconds")
	var out []telemetry.ContentionRecord
	at, total := map[string]int{}, map[int]float64{}
	for _, m := range ms.of("dbproc_lock_acquires_total") {
		run := url
		if world := m.Labels["world"]; world != "" {
			run += " world " + world
		}
		i, ok := at[run]
		if !ok {
			i, at[run] = len(out), len(out)
			out = append(out, telemetry.ContentionRecord{Type: telemetry.RecordContention, Run: run})
		}
		k := fmt.Sprint(m.Labels)
		out[i].Locks = append(out[i].Locks, telemetry.LockContentionJSON{Name: m.Labels["lock"],
			Acquires: int64(m.Value), Contended: int64(contended[k]), WaitMs: 1e3 * wait[k], HoldMs: 1e3 * hold[k],
			MaxWaitUs: 1e6 * maxWait[k]})
		total[i] += 1e3 * wait[k]
	}
	for i := range out {
		for j := range out[i].Locks {
			if total[i] > 0 {
				out[i].Locks[j].WaitShare = out[i].Locks[j].WaitMs / total[i]
			}
		}
	}
	return out
}

// blockers reads the dbproc_blame_* series as flightReport's blocker
// rows: wall-clock wait per (lock, holder session, holder op) over the
// whole run.
func (ms metrics) blockers() []blockerAgg {
	waits := map[string]float64{}
	for _, m := range ms.of("dbproc_blame_waits_total") {
		waits[fmt.Sprint(m.Labels)] = m.Value
	}
	var out []blockerAgg
	for _, m := range ms.of("dbproc_blame_wait_seconds_total") {
		h := fmt.Sprintf("held by session %s (%s)", m.Labels["holder_session"], m.Labels["holder_op"])
		if world := m.Labels["world"]; world != "" {
			h += " in world " + world
		}
		out = append(out, blockerAgg{Lock: m.Labels["lock"], Holder: h,
			Waits: int(waits[fmt.Sprint(m.Labels)]), WaitNs: int64(math.Round(m.Value * 1e9))})
	}
	sortBlockers(out)
	return out
}

// scrapeReport renders the panels only a scrape carries, each when its
// series are present: the headline gauges, the operation-latency
// quantiles, the critical-path split, the blockers and the served
// request table. Its lock series and event tail render as the
// contention and flight sections.
func scrapeReport(w io.Writer, s scrape, topK int) {
	m := s.metrics
	fmt.Fprintf(w, "== live %s ==\n", s.url)
	for _, r := range []struct{ label, name string }{
		{"sessions", "dbproc_sessions"},
		{"inflight ops", "dbproc_sessions_inflight"},
		{"committed ops", "dbproc_ops_committed_total"},
		{"goroutines", "dbproc_goroutines"},
		{"flight events", "dbproc_flight_events_total"},
	} {
		if v, ok := m.value(r.name); ok {
			fmt.Fprintf(w, "  %-22s %12g\n", r.label, v)
		}
	}

	for _, dom := range []struct {
		name, label, unit string
		scale             float64
	}{
		{"dbproc_op_latency_wall_ns", "op latency (wall)", "us", 1e-3},
		{"dbproc_op_latency_sim_ms", "op latency (sim)", "ms", 1},
	} {
		qs := m.of(dom.name) // in the exporter's order, p50 first
		if len(qs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s:", dom.label)
		for _, q := range qs {
			p := q.Labels["quantile"]
			if f, err := strconv.ParseFloat(p, 64); err == nil {
				p = strconv.FormatFloat(100*f, 'g', -1, 64)
			}
			fmt.Fprintf(w, "  p%s=%.1f%s", p, q.Value*dom.scale, dom.unit)
		}
		fmt.Fprintln(w)
	}

	if segs := m.byLabel("dbproc_critpath_seconds_total", "segment"); len(segs) > 0 {
		var total float64
		for _, v := range segs {
			total += v
		}
		fmt.Fprintf(w, "  critical path:")
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

	if b := m.blockers(); len(b) > 0 {
		blockerTable(w, b, topK)
	}

	servingReport(w, m, topK)
}

// servingReport renders procserved's dbproc_server_* series: the
// connection and request counters, then per request type its count and
// service-time quantiles, busiest types first.
func servingReport(w io.Writer, m metrics, topK int) {
	var counters []string
	for _, c := range []struct{ label, name string }{
		{"conns", "dbproc_server_connections"},
		{"requests", "dbproc_server_requests_total"},
		{"errors", "dbproc_server_errors_total"},
		{"cancels", "dbproc_server_cancels_total"},
		{"worlds", "dbproc_server_worlds_open"},
	} {
		if v, ok := m.value(c.name); ok {
			counters = append(counters, fmt.Sprintf("%s=%g", c.label, v))
		}
	}
	if len(counters) > 0 {
		fmt.Fprintf(w, "  serving:  %s\n", strings.Join(counters, "  "))
	}

	types := m.of("dbproc_server_request_seconds_count") // one per type, by name
	if len(types) == 0 {
		return
	}
	seconds := map[string]float64{}
	for _, s := range m.of("dbproc_server_request_seconds") {
		seconds[s.Labels["type"]+" "+s.Labels["quantile"]] = s.Value
	}
	sort.SliceStable(types, func(i, j int) bool { return types[i].Value > types[j].Value })
	k := limit(topK, len(types))
	fmt.Fprintf(w, "  served requests (top %d of %d types):\n", k, len(types))
	fmt.Fprintf(w, "    %-14s %9s %10s %10s %10s %10s\n", "request", "count", "p50", "p90", "p95", "p99")
	for _, t := range types[:k] {
		typ := t.Labels["type"]
		fmt.Fprintf(w, "    %-14s %9.0f %8.2fms %8.2fms %8.2fms %8.2fms\n", typ, t.Value,
			1e3*seconds[typ+" 0.5"], 1e3*seconds[typ+" 0.9"], 1e3*seconds[typ+" 0.95"], 1e3*seconds[typ+" 0.99"])
	}
}
