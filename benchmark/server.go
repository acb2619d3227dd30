package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// goBuild compiles pkg (relative to dir) into out. A second call with
// nothing changed is an up-to-date check, so every run may ask.
func goBuild(dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

var listenLine = regexp.MustCompile(`(?m)^procserved: listening on (\S+)\n`)

// stderrWatch keeps the child's stderr (shown when the child fails) and
// reports the address from its "procserved: listening on" line.
type stderrWatch struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	addrCh chan string // capacity 1: the one address line
	found  bool
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if m := listenLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.found = true
			w.addrCh <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// serverProc is one procserved child on a loopback port of its own.
type serverProc struct {
	cmd    *exec.Cmd
	Addr   string
	stderr *stderrWatch
	// exited receives cmd.Wait's result once.
	exited chan error
}

// startServer launches bin on 127.0.0.1:0 and waits for its address.
// traceFile, when set, becomes procserved -trace.
func startServer(bin, traceFile string) (*serverProc, error) {
	args := []string{"-listen", "127.0.0.1:0"}
	if traceFile != "" {
		args = append(args, "-trace", traceFile)
	}
	s := &serverProc{
		cmd:    exec.Command(bin, args...),
		stderr: &stderrWatch{addrCh: make(chan string, 1)},
		exited: make(chan error, 1),
	}
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	select {
	case s.Addr = <-s.stderr.addrCh:
		return s, nil
	case err := <-s.exited:
		return nil, fmt.Errorf("procserved exited before listening: %v\n%s", err, s.stderr)
	case <-time.After(15 * time.Second):
		s.kill()
		return nil, fmt.Errorf("procserved never reported its address\n%s", s.stderr)
	}
}

// stop drains the child with SIGINT and requires exit status 0; on any
// other outcome the error carries the child's stderr.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return fmt.Errorf("signal procserved: %w\n%s", err, s.stderr)
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("procserved did not exit 0 after SIGINT: %v\n%s", err, s.stderr)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("procserved ignored SIGINT for 20s, killed\n%s", s.stderr)
	}
}

// kill ends the child at once, for paths that already hold an error.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

var vmHWM = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB$`)

// peakRSSMB reads the child's resident-set high-water mark.
func (s *serverProc) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	m := vmHWM.FindSubmatch(status)
	if m == nil {
		return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", s.cmd.Process.Pid)
	}
	kb, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return 0, err
	}
	return kb / 1024, nil
}
