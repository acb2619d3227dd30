// Command procserved serves the database-procedure system over the
// framed wire protocol (docs/SERVING.md): any Go program can reach it
// with sql.Open("dbproc", addr), and the bench harness can drive engine
// worlds through it to measure served wall-clock throughput.
//
// Usage:
//
//	procserved                            # listen on 127.0.0.1:7141
//	procserved -listen :7141              # all interfaces
//	procserved -telemetry 127.0.0.1:9141  # live /metrics, /events, /debug/pprof
//	procserved -flight flight.jsonl       # flight dump on fault or SLO breach
//	procserved -trace server.jsonl        # server-side wire spans (docs/TRACING.md)
//	procserved -max-conns 16              # admission bound
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests finish, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dbproc/internal/obs"
	"dbproc/internal/server"
	"dbproc/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7141", "address to serve the wire protocol on")
	telemetryAddr := flag.String("telemetry", "", "address for the live ops endpoint (/metrics, /events, /debug/pprof); empty disables")
	flight := flag.String("flight", "", "flight-recorder auto-dump file (JSONL); empty disables the recorder")
	trace := flag.String("trace", "", "server-side wire-span file (JSONL, one span per sampled traced request); empty disables")
	maxConns := flag.Int("max-conns", 64, "maximum concurrently open connections")
	maxWorlds := flag.Int("max-worlds", 8, "maximum concurrently open bench worlds")
	page := flag.Int("page", 0, "pager page size for the shared session (0 = paper default, 4000)")
	width := flag.Int("width", 0, "default tuple width for the shared session (0 = paper default, 100)")
	drainTimeout := flag.Duration("drain", 10*time.Second, "graceful drain timeout on SIGINT/SIGTERM")
	flag.Parse()

	opt := server.Options{
		MaxConns:  *maxConns,
		MaxWorlds: *maxWorlds,
		PageSize:  *page,
		Width:     *width,
	}
	// The recorder also arms the served SLO detector and every world
	// engine's detectors (docs/DIAGNOSIS.md, "Detectors").
	var rec *telemetry.Recorder
	if *flight != "" || *telemetryAddr != "" {
		rec = telemetry.NewRecorder(4096)
		if *flight != "" {
			rec.SetAutoDumpFile(*flight)
		}
		opt.Recorder = rec
	}
	var traceFile *os.File
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "procserved: trace: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		opt.TraceSink = obs.NewWireSpanSink(f)
	}
	srv := server.New(opt)

	hub := telemetry.NewHub()
	if *telemetryAddr != "" {
		hub.SetSource(srv)
		hub.SetRecorder(rec)
		if _, err := hub.ListenAndServe(*telemetryAddr); err != nil {
			fmt.Fprintf(os.Stderr, "procserved: telemetry: %v\n", err)
			os.Exit(1)
		}
		defer hub.Close()
	}

	addr, err := srv.ListenAndServe(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "procserved: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "procserved: listening on %s\n", addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	fmt.Fprintln(os.Stderr, "procserved: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "procserved: drain: %v\n", err)
	}
	if traceFile != nil {
		fmt.Fprintf(os.Stderr, "procserved: wrote %d wire spans to %s\n", opt.TraceSink.Count(), *trace)
		traceFile.Close()
	}
	fmt.Fprintln(os.Stderr, "procserved: bye")
}
