package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: EvOpBegin})
	r.Op(EvOpCommit, 1, 2, "x", 0, 0)
	r.SetAutoDumpWriter(nil)
	r.SetAutoDumpFile("")
	if r.Len() != 0 {
		t.Fatal("nil recorder Len != 0")
	}
	if evs, dropped := r.Snapshot(); evs != nil || dropped != 0 {
		t.Fatal("nil recorder Snapshot not empty")
	}
	if err := r.DumpJSONL(&bytes.Buffer{}, "x"); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderSnapshotOrderAndWrap(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.Op(EvOpCommit, i%4, i, "op", 0, 0)
	}
	events, dropped := r.Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want 16", len(events))
	}
	if dropped != 24 {
		t.Fatalf("dropped = %d, want 24", dropped)
	}
	for i, ev := range events {
		if ev.I != int64(24+i) {
			t.Fatalf("event %d has index %d, want %d", i, ev.I, 24+i)
		}
		if ev.Seq != 24+i {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, 24+i)
		}
	}
	if r.Len() != 40 {
		t.Fatalf("Len = %d, want 40", r.Len())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Op(EvLockAcquire, w, i, "lock:r1", int64(i), 0)
				if i%10 == 0 {
					r.Snapshot() // readers race writers by design
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", r.Len(), writers*per)
	}
	events, _ := r.Snapshot()
	if len(events) != 128 {
		t.Fatalf("retained %d, want 128", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].I <= events[i-1].I {
			t.Fatalf("snapshot not strictly ordered at %d", i)
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder(32)
	r.Op(EvLockAcquire, 2, -1, "rel:r1", 1500000, 0)
	r.Op(EvOpCommit, 2, 9, "update", 0, 300000)
	var buf bytes.Buffer
	events, dropped := r.Snapshot()
	WriteTimeline(&buf, events, dropped, nil)
	out := buf.String()
	for _, want := range []string{"2 events retained", "lock.acquire", "rel:r1", "wait=1.5ms", "hold=300", "op.commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}

	// mark flags matching rows with '*'.
	buf.Reset()
	WriteTimeline(&buf, events, dropped, func(ev Event) bool { return ev.Seq == 9 })
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "*") {
		t.Fatalf("marked row not flagged: %q", last)
	}
}

func TestRenderContention(t *testing.T) {
	rec := ContentionRecord{
		Type: RecordContention,
		Run:  "ci/model1",
		Locks: []LockContentionJSON{
			{Name: "rel:r1", Acquires: 100, Contended: 40, WaitMs: 12.5, HoldMs: 3.25, MaxWaitUs: 900, WaitShare: 0.8},
			{Name: "cache:000017", Acquires: 60, Contended: 5, WaitMs: 3.1, HoldMs: 1.0, MaxWaitUs: 200, WaitShare: 0.2},
		},
	}
	var buf bytes.Buffer
	RenderContention(&buf, rec, 1)
	out := buf.String()
	if !strings.Contains(out, "top 1 of 2") || !strings.Contains(out, "rel:r1") {
		t.Fatalf("render:\n%s", out)
	}
	if strings.Contains(out, "cache:000017") {
		t.Fatalf("topK not honored:\n%s", out)
	}
	buf.Reset()
	RenderContention(&buf, rec, 0)
	if !strings.Contains(buf.String(), "cache:000017") {
		t.Fatalf("topK=0 should render all:\n%s", buf.String())
	}
}
