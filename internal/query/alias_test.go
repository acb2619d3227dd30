package query_test

import (
	"bytes"
	"sync"
	"testing"

	"dbproc/internal/dbtest"
	"dbproc/internal/dbtest/aliastest"
	"dbproc/internal/metric"
	"dbproc/internal/query"
	"dbproc/internal/storage"
)

// TestConsumersCopyWhatTheyKeep runs every consuming node and both
// collectors over inputs whose emitted tuples are overwritten the moment
// emit returns (aliastest.Borrowed). A consumer that kept a tuple by
// reference returns garbage; the results must equal those of the same plan
// over plain inputs.
func TestConsumersCopyWhatTheyKeep(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	ctx := &query.Ctx{Meter: w.Meter, Pager: w.Pager}
	// Six R2 keys get a second and a third record, so that a probe emits
	// some slots of its row block more than once.
	for j := int64(0); j < 12; j++ {
		s2 := w.R2.Schema()
		dup := s2.New()
		s2.SetByName(dup, "tid", 100+j)
		s2.SetByName(dup, "b", j%6*5)
		s2.SetByName(dup, "c", j)
		s2.SetByName(dup, "p2", j%10)
		w.R2.Insert(w.Pager, dup)
	}
	var r2 [][]byte
	w.R2.Hash().ScanAll(w.Pager, func(rec []byte) bool {
		r2 = append(r2, bytes.Clone(rec))
		return true
	})

	type wrapper func(query.Plan) query.Plan
	// join3 is the model-2 procedure shape: every node reads a borrowed
	// input and the joins emit their scratch tuple.
	join3 := func(wrap wrapper) query.Plan {
		j := query.NewHashJoinProbe(wrap(query.NewBTreeRangeScan(w.R1, 20, 99)), w.R2, "a", 80)
		j = query.NewHashJoinProbe(wrap(j), w.R3, "r2_c", 80)
		return &query.Filter{Child: wrap(j), Pred: query.Range{Field: "r2_p2", Lo: 2, Hi: 7}}
	}
	cases := map[string]func(wrap wrapper) [][]byte{
		"Run": func(wrap wrapper) [][]byte {
			return query.Run(wrap(join3(wrap)), ctx)
		},
		"Materialize": func(wrap wrapper) [][]byte {
			p := join3(wrap)
			s := p.Schema()
			// Keyed descending, so that the sort moves every row.
			key := func(tup []byte) uint64 {
				return ^(uint64(s.GetByName(tup, "skey"))<<32 | uint64(s.GetByName(tup, "tid")))
			}
			keys, recs := query.Materialize(wrap(p), key, ctx)
			for i, rec := range recs {
				if key(rec) != keys[i] {
					t.Errorf("Materialize: record %d does not carry its key", i)
					break
				}
			}
			return recs
		},
		// A probe whose child is a probe: the child emits a slot of its row
		// block, which its later matches overwrite, and the gather must have
		// copied what it needs of it by then.
		"HashJoinProbe": func(wrap wrapper) [][]byte {
			j := query.NewHashJoinProbe(wrap(query.NewBTreeRangeScan(w.R1, 0, 199)), w.R2, "a", 80)
			return query.Run(query.NewHashJoinProbe(wrap(j), w.R3, "r2_c", 80), ctx)
		},
		// The AVM delta plan's shape: the probed tuples are a ValuesScan's
		// input, which the caller owns.
		"HashJoinProbe(ValuesScan)": func(wrap wrapper) [][]byte {
			vs := &query.ValuesScan{Sch: w.R1.Schema()}
			for tid := int64(0); tid < 70; tid++ {
				vs.Tuples = append(vs.Tuples, w.R1Tuple(tid, tid, (tid*7)%45))
			}
			j := query.NewHashJoinProbe(wrap(vs), w.R2, "a", 80)
			return query.Run(query.NewHashJoinProbe(wrap(j), w.R3, "r2_c", 80), ctx)
		},
		"Sort": func(wrap wrapper) [][]byte {
			return query.Run(wrap(query.NewSort(wrap(join3(wrap)), []string{"r2_p2", "a"})), ctx)
		},
		"NestedLoopJoin": func(wrap wrapper) [][]byte {
			inner := &query.Refine{
				Child: wrap(&query.ValuesScan{Sch: w.R2.Schema(), Tuples: r2}),
				Pred:  query.Compare{Field: "p2", Op: query.Ge, Value: 3},
			}
			nl := query.NewNestedLoopJoin(
				wrap(query.NewBTreeRangeScan(w.R1, 20, 99)), wrap(inner), "a", "b", "r2_", 80)
			return query.Run(wrap(nl), ctx)
		},
		"Aggregate": func(wrap wrapper) [][]byte {
			agg := query.NewAggregate(wrap(join3(wrap)), []string{"r2_p2"}, []query.AggSpec{
				{Fn: query.AggCount, Name: "n"},
				{Fn: query.AggSum, Field: "tid", Name: "sum_tid"},
				{Fn: query.AggMax, Field: "skey", Name: "max_skey"},
			})
			return query.Run(wrap(agg), ctx)
		},
		"Project": func(wrap wrapper) [][]byte {
			p := query.NewProject(wrap(join3(wrap)), []string{"r3_d", "tid"}, []string{"d", "id"})
			return query.Run(wrap(p), ctx)
		},
		"HashScan": func(wrap wrapper) [][]byte {
			return query.Run(wrap(query.NewSort(wrap(query.NewHashScan(w.R2)), []string{"p2", "tid"})), ctx)
		},
	}
	for name, run := range cases {
		w.Pager.BeginOp()
		want := run(func(p query.Plan) query.Plan { return p })
		w.Pager.BeginOp()
		got := run(aliastest.Borrowed)
		if len(want) == 0 {
			t.Errorf("%s: the plain run is empty, the case checks nothing", name)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d tuples over borrowed inputs, %d over plain ones", name, len(got), len(want))
			continue
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: tuple %d differs over borrowed inputs: a tuple was kept without a copy", name, i)
				break
			}
		}
	}
}

// TestSharedPlanExecutesConcurrently: one procedure's plan is executed by
// every session at once, so a node's scratch tuple must be a local of the
// Execute call, never a field of the node. Four sessions run one plan
// holding every scratch-emitting node, each on its own pager; under -race
// a shared scratch is a reported race, and without it a wrong answer.
func TestSharedPlanExecutesConcurrently(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	var r2 [][]byte
	w.R2.Hash().ScanAll(w.Pager, func(rec []byte) bool {
		r2 = append(r2, bytes.Clone(rec))
		return true
	})
	j := query.NewHashJoinProbe(query.NewBTreeRangeScan(w.R1, 20, 99), w.R2, "a", 80)
	j = query.NewHashJoinProbe(j, w.R3, "r2_c", 80)
	nl := query.NewNestedLoopJoin(query.NewBTreeRangeScan(w.R1, 20, 99),
		&query.ValuesScan{Sch: w.R2.Schema(), Tuples: r2}, "a", "b", "r2_", 80)
	plans := []query.Plan{
		query.NewProject(&query.Filter{Child: j, Pred: query.Range{Field: "r2_p2", Lo: 2, Hi: 7}},
			[]string{"r3_d", "tid"}, []string{"d", "id"}),
		query.NewAggregate(nl, []string{"r2_p2"}, []query.AggSpec{{Fn: query.AggSum, Field: "tid", Name: "sum_tid"}}),
	}
	var want [][][]byte
	for _, p := range plans {
		want = append(want, query.Run(p, &query.Ctx{Meter: w.Meter, Pager: w.Pager}))
	}
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := metric.NewMeter(metric.DefaultCosts())
			ctx := &query.Ctx{Meter: m, Pager: storage.NewPager(w.Pager.Disk(), m)}
			for round := 0; round < 25; round++ {
				for i, p := range plans {
					ctx.Pager.BeginOp()
					got := query.Run(p, ctx)
					if len(got) != len(want[i]) {
						t.Errorf("plan %d: %d tuples beside other sessions, %d alone", i, len(got), len(want[i]))
						return
					}
					for k := range got {
						if !bytes.Equal(got[k], want[i][k]) {
							t.Errorf("plan %d: tuple %d differs beside other sessions", i, k)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
