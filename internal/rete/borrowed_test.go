package rete

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/dbtest"
	"dbproc/internal/dbtest/aliastest"
	"dbproc/internal/tuple"
)

// TestReteNodesCopyWhatTheyKeep: a token's tuple is borrowed for the
// length of the call that carries it (Token), which is what lets the
// prepare fill submit the scanned page records themselves. A network
// shaped like both of the paper's — a P1 α-memory shared by a P2, a P2
// with its own band, an R2 α joined straight into the left band (model
// 1) and one joined with the shared α(R3) first (model 2) — is fed every
// token twice: as is, and as a private copy scribbled the moment Submit,
// SubmitModify or Engine.Apply returns. The prepare fill and then R1
// moves, an R2 change and an applied delta; after each, every memory must
// hold the same records in both runs. A node that kept a token's tuple by
// reference would hold scribble.
func TestReteNodesCopyWhatTheyKeep(t *testing.T) {
	run := func(borrowed bool) []string {
		w := dbtest.NewWorld(dbtest.Config{})
		w.Pager.SetCharging(false)
		net := NewNetwork(w.Pager.Disk())
		eng := NewEngine(net, cache.NewStore(w.Pager.Disk()), nil)
		s1, s2, s3 := w.R1.Schema(), w.R2.Schema(), w.R3.Schema()
		key := func(sch *tuple.Schema, field string) func([]byte) uint64 {
			return func(tup []byte) uint64 {
				return tuple.ClusterKey(sch.GetByName(tup, field), sch.GetByName(tup, "tid"))
			}
		}
		var mems []*Memory
		memory := func(sch *tuple.Schema, field string) *Memory {
			m := net.NewMemory(sch, nil, key(sch, field))
			mems = append(mems, m)
			return m
		}
		band := func(sch *tuple.Schema, field string, lo, hi int64, into *Memory) *Memory {
			net.TConst(sch, field, lo, hi).Attach(into)
			return into
		}
		join := func(left, right *Memory, lf, rf, prefix, outKey string) *Memory {
			and := net.NewAndNode(left, right, lf, rf, prefix, 96)
			out := memory(and.Schema(), outKey)
			and.Attach(out)
			return out
		}
		shared := band(s1, "skey", 20, 39, memory(s1, "skey"))
		own := band(s1, "skey", 50, 89, memory(s1, "skey"))
		alphaR3 := band(s3, "d", 0, math.MaxInt32, memory(s3, "d"))
		join(shared, band(s2, "p2", 0, 4, memory(s2, "b")), "a", "b", "r2_", "skey")
		r23 := join(band(s2, "p2", 3, 7, memory(s2, "c")), alphaR3, "c", "d", "r3_", "b")
		join(own, r23, "a", "b", "r2_", "skey")

		// lend hands tups to fn as they are, or as private copies
		// scribbled when fn returns.
		lend := func(fn func(...[]byte), tups ...[]byte) {
			if !borrowed {
				fn(tups...)
				return
			}
			cps := make([][]byte, len(tups))
			for i, tup := range tups {
				cps[i] = bytes.Clone(tup)
			}
			fn(cps...)
			aliastest.Scribble(cps...)
		}
		submit := func(rel string) func([]byte) bool {
			return func(rec []byte) bool {
				lend(func(t ...[]byte) { net.Submit(w.Pager, rel, Token{Tag: Plus, Tuple: t[0]}) }, rec)
				return true
			}
		}
		modify := func(rel string, old []byte, field string, v int64) []byte {
			sch := map[string]*tuple.Schema{"r1": s1, "r2": s2}[rel]
			nt := bytes.Clone(old)
			sch.SetByName(nt, field, v)
			lend(func(t ...[]byte) { net.SubmitModify(w.Pager, rel, t[0], t[1]) }, old, nt)
			return nt
		}

		var states []string
		snapshot := func() {
			var b bytes.Buffer
			for i, m := range mems {
				fmt.Fprintf(&b, "memory %d:", i)
				m.File().Scan(w.Pager, func(k uint64, rec []byte) bool {
					fmt.Fprintf(&b, " %d=%x", k, rec)
					return true
				})
				b.WriteByte('\n')
			}
			states = append(states, b.String())
		}

		w.R3.Hash().ScanAll(w.Pager, submit("r3"))
		w.R2.Hash().ScanAll(w.Pager, submit("r2"))
		w.R1.Tree().ScanAll(w.Pager, submit("r1"))
		snapshot()
		moved := modify("r1", w.R1Tuple(25, 25, 25), "skey", 60) // shared band -> own band
		snapshot()
		modify("r1", w.R1Tuple(70, 70, 30), "skey", 30) // own band -> shared band
		snapshot()
		// R2 changes right-activate both joins: tid 22 (p2 2) joins R1 tid
		// 22 in the shared band, tid 25 (p2 5) joins R1 tid 65 in the own.
		modify("r2", r2Tuple(w, 22), "p2", 9)
		modify("r2", r2Tuple(w, 25), "p2", 9)
		snapshot()
		lend(func(t ...[]byte) { eng.Apply(w.Pager, w.R1, t[:1], t[1:]) },
			w.R1Tuple(26, 55, 26), w.R1Tuple(26, 26, 26))
		lend(func(t ...[]byte) { eng.Apply(w.Pager, w.R1, t[:1], t[1:]) },
			w.R1Tuple(25, 21, 25), moved)
		snapshot()
		return states
	}
	want, got := run(false), run(true)
	if n := strings.Count(want[0], "="); n < 60 {
		t.Fatalf("the prepare fill left %d records in the memories", n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: memories differ when every token is scribbled after its call:\n%s\nwant\n%s", i, got[i], want[i])
		}
	}
}

// r2Tuple reads dbtest's R2 tuple tid (hashed on b = tid).
func r2Tuple(w *dbtest.World, tid int64) []byte {
	rec, ok := w.R2.Hash().Lookup(w.Pager, uint64(tid))
	if !ok {
		panic(fmt.Sprintf("no R2 tuple %d", tid))
	}
	return rec
}
