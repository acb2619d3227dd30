package storage

import (
	"sync"
	"testing"

	"dbproc/internal/metric"
)

// runPattern executes one session's access pattern against the shared
// disk through its own pager: ops operations, each reading every page in
// the set, dirtying each once, then re-touching each (which must stay
// free within the operation). It returns the counters the session's
// private meter charged — the per-operation distinct-page C2 accounting.
func runPattern(d *Disk, pages []PageID, ops int) metric.Counters {
	m := metric.NewMeter(metric.DefaultCosts())
	p := NewPager(d, m)
	for op := 0; op < ops; op++ {
		p.BeginOp()
		for _, id := range pages {
			_ = p.Read(id)
		}
		for _, id := range pages {
			buf := p.Update(id)
			buf[0]++
		}
		for _, id := range pages {
			_ = p.Read(id) // re-touch: free within the op
		}
	}
	p.BeginOp() // flush the last operation
	return m.Snapshot()
}

// patternBaseline is what one session charges running the pattern alone:
// per operation, one read and one write per distinct page, nothing for
// re-touches — the sequential C2 model.
func patternBaseline(t *testing.T, nPages, ops int) metric.Counters {
	t.Helper()
	d := NewDisk(128)
	pages := make([]PageID, nPages)
	for i := range pages {
		pages[i] = d.Alloc()
	}
	c := runPattern(d, pages, ops)
	if c.PageReads != int64(nPages*ops) || c.PageWrites != int64(nPages*ops) {
		t.Fatalf("sequential baseline charged %v, want %d reads and writes", c, nPages*ops)
	}
	return c
}

// TestConcurrentPagersDisjointPages runs many sessions against one Disk,
// each on its own page set. Every session's per-op distinct-page counts
// must be identical to the sequential baseline, and since the sets are
// disjoint the page contents must come out exactly as a serial run would
// leave them. Run under -race this also exercises the atomically swapped
// page images and the lock-free page table.
func TestConcurrentPagersDisjointPages(t *testing.T) {
	const sessions, perSession, ops = 8, 5, 40
	want := patternBaseline(t, perSession, ops)

	d := NewDisk(128)
	sets := make([][]PageID, sessions)
	for s := range sets {
		sets[s] = make([]PageID, perSession)
		for i := range sets[s] {
			sets[s][i] = d.Alloc()
		}
	}

	got := make([]metric.Counters, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s] = runPattern(d, sets[s], ops)
		}(s)
	}
	wg.Wait()

	for s, c := range got {
		if c != want {
			t.Errorf("session %d charged %v under concurrency, sequential charges %v", s, c, want)
		}
	}
	// Disjoint sets conflict with nobody: the final page images equal a
	// serial run's (each page's first byte incremented once per op).
	for s, set := range sets {
		for i, id := range set {
			if b := d.ReadRaw(id)[0]; b != byte(ops) {
				t.Errorf("session %d page %d: byte0 = %d, want %d", s, i, b, ops)
			}
		}
	}
}

// TestConcurrentPagersOverlappingPages points every session at the SAME
// page set. Physical outcomes on shared pages are racy by design — in
// the engine the 2PL lock table serializes such conflicts — but the C2
// accounting is per-session frame-table state and must charge exactly
// the sequential figure regardless of interleaving, and -race must stay
// silent (a page changes only by swapping in a whole new image).
func TestConcurrentPagersOverlappingPages(t *testing.T) {
	const sessions, nPages, ops = 8, 5, 40
	want := patternBaseline(t, nPages, ops)

	d := NewDisk(128)
	pages := make([]PageID, nPages)
	for i := range pages {
		pages[i] = d.Alloc()
	}

	got := make([]metric.Counters, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s] = runPattern(d, pages, ops)
		}(s)
	}
	wg.Wait()

	for s, c := range got {
		if c != want {
			t.Errorf("session %d charged %v under page conflicts, sequential charges %v", s, c, want)
		}
	}
}

// TestConcurrentAllocAndAccess races page allocation against reads and
// writes of already-allocated pages: growing the directory must never
// invalidate a concurrent session's view of its own pages.
func TestConcurrentAllocAndAccess(t *testing.T) {
	d := NewDisk(64)
	pages := make([]PageID, 16)
	for i := range pages {
		pages[i] = d.Alloc()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			id := d.Alloc()
			if i%3 == 0 {
				d.Free(id)
			}
		}
	}()
	go func() {
		defer wg.Done()
		m := metric.NewMeter(metric.DefaultCosts())
		p := NewPager(d, m)
		for i := 0; i < 500; i++ {
			p.BeginOp()
			for _, id := range pages {
				buf := p.Update(id)
				buf[1]++
			}
		}
		p.BeginOp()
		if r := m.Snapshot().PageReads; r != int64(len(pages)*500) {
			t.Errorf("reads = %d, want %d", r, len(pages)*500)
		}
	}()
	wg.Wait()
}
