package query

import (
	"testing"

	"dbproc/internal/dbtest"
)

func TestAggregateScalarAndGrouped(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	ctx := &Ctx{Meter: w.Meter, Pager: w.Pager}
	scan := NewBTreeRangeScan(w.R1, 0, 79) // skey 0..79, a = tid % 40

	// Scalar.
	agg := NewAggregate(scan, nil, []AggSpec{
		{Fn: AggCount, Name: "n"},
		{Fn: AggSum, Field: "a", Name: "sum_a"},
		{Fn: AggMin, Field: "a", Name: "min_a"},
		{Fn: AggMax, Field: "a", Name: "max_a"},
		{Fn: AggAvg, Field: "a", Name: "avg_a"},
	})
	out := Run(agg, ctx)
	if len(out) != 1 {
		t.Fatalf("scalar rows = %d", len(out))
	}
	s := agg.Schema()
	// a values: 0..39 twice -> sum = 2*780 = 1560, avg = 19 (truncated).
	if s.GetByName(out[0], "n") != 80 || s.GetByName(out[0], "sum_a") != 1560 ||
		s.GetByName(out[0], "min_a") != 0 || s.GetByName(out[0], "max_a") != 39 ||
		s.GetByName(out[0], "avg_a") != 19 {
		t.Fatalf("scalar aggregates wrong: %s", s.String(out[0]))
	}

	// Grouped by a (two tuples per group).
	g := NewAggregate(scan, []string{"a"}, []AggSpec{{Fn: AggCount, Name: "n"}})
	rows := Run(g, ctx)
	if len(rows) != 40 {
		t.Fatalf("groups = %d, want 40", len(rows))
	}
	gs := g.Schema()
	prev := int64(-1)
	for _, row := range rows {
		if gs.GetByName(row, "n") != 2 {
			t.Fatalf("group count = %d, want 2", gs.GetByName(row, "n"))
		}
		if v := gs.GetByName(row, "a"); v <= prev {
			t.Fatal("groups not in ascending key order")
		} else {
			prev = v
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	ctx := &Ctx{Meter: w.Meter, Pager: w.Pager}
	empty := &ValuesScan{Sch: w.R1.Schema()}
	// Scalar over empty: one zero row.
	agg := NewAggregate(empty, nil, []AggSpec{{Fn: AggCount, Name: "n"}, {Fn: AggAvg, Field: "a", Name: "avg"}})
	out := Run(agg, ctx)
	if len(out) != 1 || agg.Schema().GetByName(out[0], "n") != 0 || agg.Schema().GetByName(out[0], "avg") != 0 {
		t.Fatalf("empty scalar = %v", out)
	}
	// Grouped over empty: no rows.
	g := NewAggregate(empty, []string{"a"}, []AggSpec{{Fn: AggCount, Name: "n"}})
	if rows := Run(g, ctx); len(rows) != 0 {
		t.Fatalf("empty grouped = %d rows", len(rows))
	}
}

// TestAggregateAllocatesPerGroup: a grouped aggregate allocates for the
// groups it finds, not for the tuples it reads — a tuple of a group already
// seen costs no allocation at all.
func TestAggregateAllocatesPerGroup(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	ctx := &Ctx{Meter: w.Meter, Pager: w.Pager}
	vs := &ValuesScan{Sch: w.R1.Schema()}
	for tid := int64(0); tid < 2000; tid++ {
		vs.Tuples = append(vs.Tuples, w.R1Tuple(tid, tid%4-1, tid%3)) // 12 groups, negative values among them
	}
	agg := NewAggregate(vs, []string{"skey", "a"}, []AggSpec{{Fn: AggCount, Name: "n"}, {Fn: AggSum, Field: "tid", Name: "s"}})
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		rows = 0
		agg.Execute(ctx, func([]byte) bool { rows++; return true })
	})
	if rows != 12 {
		t.Fatalf("%d groups, want 12", rows)
	}
	if allocs > 100 {
		t.Fatalf("%v allocations for %d tuples in %d groups: the aggregate allocates per tuple", allocs, len(vs.Tuples), rows)
	}
}

func TestAggregateNegativeValues(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	ctx := &Ctx{Meter: w.Meter, Pager: w.Pager}
	s1 := w.R1.Schema()
	vs := &ValuesScan{Sch: s1, Tuples: [][]byte{
		w.R1Tuple(1, 0, 0), w.R1Tuple(2, 0, 0),
	}}
	// Write negative values into 'a' directly.
	s1.SetByName(vs.Tuples[0], "a", -5)
	s1.SetByName(vs.Tuples[1], "a", -9)
	agg := NewAggregate(vs, nil, []AggSpec{
		{Fn: AggMin, Field: "a", Name: "mn"},
		{Fn: AggMax, Field: "a", Name: "mx"},
		{Fn: AggSum, Field: "a", Name: "sm"},
	})
	out := Run(agg, ctx)
	sch := agg.Schema()
	if sch.GetByName(out[0], "mn") != -9 || sch.GetByName(out[0], "mx") != -5 || sch.GetByName(out[0], "sm") != -14 {
		t.Fatalf("negative aggregates wrong: %s", sch.String(out[0]))
	}
}

func TestAggregateEarlyStopAndString(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	ctx := &Ctx{Meter: w.Meter, Pager: w.Pager}
	scan := NewBTreeRangeScan(w.R1, 0, 79)
	g := NewAggregate(scan, []string{"a"}, []AggSpec{{Fn: AggCount, Name: "n"}})
	count := 0
	g.Execute(ctx, func([]byte) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
	if got := g.String(); got != "Aggregate(count() by a)" {
		t.Fatalf("String = %q", got)
	}
	if len(g.Children()) != 1 {
		t.Fatal("Children wrong")
	}
}

func TestAggregatePanics(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	scan := NewBTreeRangeScan(w.R1, 0, 9)
	for name, fn := range map[string]func(){
		"no aggs":      func() { NewAggregate(scan, nil, nil) },
		"unknown fn":   func() { NewAggregate(scan, nil, []AggSpec{{Fn: "median", Field: "a", Name: "m"}}) },
		"bad field":    func() { NewAggregate(scan, nil, []AggSpec{{Fn: AggSum, Field: "zzz", Name: "s"}}) },
		"bad group":    func() { NewAggregate(scan, []string{"zzz"}, []AggSpec{{Fn: AggCount, Name: "n"}}) },
		"missing name": func() { NewAggregate(scan, nil, []AggSpec{{Fn: AggCount}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSortNode(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	ctx := &Ctx{Meter: w.Meter, Pager: w.Pager}
	s1 := w.R1.Schema()
	vs := &ValuesScan{Sch: s1, Tuples: [][]byte{
		w.R1Tuple(3, 9, 2), w.R1Tuple(1, 9, 1), w.R1Tuple(2, 4, 9),
	}}
	srt := NewSort(vs, []string{"skey", "a"})
	out := Run(srt, ctx)
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	wantTids := []int64{2, 1, 3} // skey 4 first; then skey 9 by a (1 then 2)
	for i, tup := range out {
		if got := s1.GetByName(tup, "tid"); got != wantTids[i] {
			t.Fatalf("order = %v at %d, want %v", got, i, wantTids)
		}
	}
	if srt.String() != "Sort(skey, a)" || len(srt.Children()) != 1 || srt.Schema() != s1 {
		t.Fatal("Sort accessors wrong")
	}
	// Early stop.
	n := 0
	srt.Execute(ctx, func([]byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	for name, fn := range map[string]func(){
		"no fields": func() { NewSort(vs, nil) },
		"bad field": func() { NewSort(vs, []string{"zzz"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
