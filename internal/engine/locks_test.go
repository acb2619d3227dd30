package engine

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/workload"
)

func TestFootprintNormalize(t *testing.T) {
	var f Footprint
	f.Shared(RelLock("r2"), RelLock("r1"))
	f.Exclusive(RelLock("r1"))
	f.Shared(RelLock("r3"))
	f.Exclusive(GCLock)
	f = f.normalized()

	wantNames := []string{GCLock, RelLock("r1"), RelLock("r2"), RelLock("r3")}
	wantExcl := []bool{true, true, false, false}
	if len(f.names) != len(wantNames) {
		t.Fatalf("normalized to %d entries, want %d: %v", len(f.names), len(wantNames), f.names)
	}
	for i := range wantNames {
		if f.names[i] != wantNames[i] || f.excl[i] != wantExcl[i] {
			t.Errorf("entry %d = (%s, excl=%v), want (%s, excl=%v)",
				i, f.names[i], f.excl[i], wantNames[i], wantExcl[i])
		}
	}
}

func TestLockTableMutualExclusion(t *testing.T) {
	defer dbtest.Watchdog(t, 30*time.Second)()
	tab := NewLockTable()
	var counter, max int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var f Footprint
				f.Exclusive(RelLock("r1"))
				h := tab.Acquire(f)
				if c := atomic.AddInt64(&counter, 1); c > atomic.LoadInt64(&max) {
					atomic.StoreInt64(&max, c)
				}
				atomic.AddInt64(&counter, -1)
				h.Release()
			}
		}()
	}
	wg.Wait()
	if atomic.LoadInt64(&max) != 1 {
		t.Fatalf("%d holders inside an exclusive section", max)
	}
}

func TestLockTableSharedAdmitsReaders(t *testing.T) {
	defer dbtest.Watchdog(t, 30*time.Second)()
	tab := NewLockTable()
	var f Footprint
	f.Shared(RelLock("r1"))
	h1 := tab.Acquire(f)
	done := make(chan struct{})
	go func() {
		var f2 Footprint
		f2.Shared(RelLock("r1"))
		tab.Acquire(f2).Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second shared acquisition blocked behind the first")
	}
	h1.Release()
}

// TestLockTableNoDeadlockUnderInversion hammers two footprints that, if
// acquired in request order rather than canonical order, would deadlock
// (AB vs BA). Canonical ordering must make the schedule deadlock-free.
func TestLockTableNoDeadlockUnderInversion(t *testing.T) {
	defer dbtest.Watchdog(t, 30*time.Second)()
	tab := NewLockTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var f Footprint
				if g%2 == 0 {
					f.Exclusive(RelLock("a"), RelLock("b"))
				} else {
					f.Exclusive(RelLock("b"), RelLock("a"))
				}
				tab.Acquire(f).Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestUpdateFootprintBuiltOnce: every update takes the same three locks —
// r1 and r2 exclusive, r3 shared — so the engine builds the footprint
// once. Asking for it allocates nothing, acquiring it sorts nothing and
// leaves it as it was, and sessions may acquire the one copy
// concurrently. The same holds for the "mvcc:gc" footprint every update
// takes for its version GC.
func TestUpdateFootprintBuiltOnce(t *testing.T) {
	defer dbtest.Watchdog(t, 30*time.Second)()
	e := New(testConfig(costmodel.UpdateCacheRVM, costmodel.Model1, 3, 4, 4), Options{Clients: 2})
	var update workload.Op
	for _, op := range e.World().WorkloadOps() {
		if op.Kind == workload.Update {
			update = op
		}
	}
	if n := testing.AllocsPerRun(100, func() { e.OpFootprint(update) }); n != 0 {
		t.Errorf("OpFootprint of an update made %.0f allocations, want 0", n)
	}
	f := e.OpFootprint(update)
	if want := []string{RelLock("r1"), RelLock("r2"), RelLock("r3")}; !f.canonical || !slices.Equal(f.names, want) ||
		!slices.Equal(f.excl, []bool{true, true, false}) {
		t.Fatalf("the update footprint is %v excl %v canonical=%v, want %v with r3 shared", f.names, f.excl, f.canonical, want)
	}
	names, excl := slices.Clone(f.names), slices.Clone(f.excl)
	tab := NewLockTable()
	// Held and its lock slots; nothing sized by a sort or a copy.
	if n := testing.AllocsPerRun(100, func() { tab.AcquireAs(f, 0, "").Release() }); n > 2 {
		t.Errorf("acquiring the prebuilt footprint made %.0f allocations, want <= 2", n)
	}
	// The version GC's footprint (every update takes it after releasing its
	// own) is prebuilt the same way.
	if g := e.gcFP; !g.canonical || !slices.Equal(g.names, []string{GCLock}) || !slices.Equal(g.excl, []bool{true}) {
		t.Fatalf("the GC footprint is %v excl %v canonical=%v, want %q exclusive", g.names, g.excl, g.canonical, GCLock)
	}
	if n := testing.AllocsPerRun(100, func() { tab.AcquireAs(e.gcFP, 0, "gc").Release() }); n > 2 {
		t.Errorf("acquiring the prebuilt GC footprint made %.0f allocations, want <= 2", n)
	}
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tab.AcquireAs(e.OpFootprint(update), s, "").Release()
			}
		}(s)
	}
	wg.Wait()
	if !slices.Equal(f.names, names) || !slices.Equal(f.excl, excl) {
		t.Fatal("AcquireAs changed the footprint it was handed")
	}

	// An unsorted footprint is normalized in a copy, not in place.
	var g Footprint
	g.Shared(RelLock("r2"), RelLock("r1"))
	g.Exclusive(RelLock("r1"))
	before := slices.Clone(g.names)
	tab.Acquire(g).Release()
	if !slices.Equal(g.names, before) {
		t.Fatalf("Acquire reordered its caller's footprint: %v", g.names)
	}
}
