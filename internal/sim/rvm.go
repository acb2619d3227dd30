package sim

import (
	"math"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/proc"
	"dbproc/internal/rete"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// buildRVM wires the Rete network of the paper's Figures 3 (model 1) and
// 16 (model 2):
//
//   - each P1 procedure is root → t-const(C_f) → α-memory, where the
//     α-memory IS the procedure's cached value;
//   - each P2 procedure joins a left α-memory for C_f(R1) against a right
//     memory — root → t-const(C_f2) → α(σR2) in model 1; in model 2 that α
//     joins a network-wide shared α(R3) into the right β-memory of
//     σ(R2) ⋈ R3 — and the join result feeds the β-memory that is the
//     procedure's cached value;
//   - a shared P2 procedure's left input is the α-memory of the P1
//     procedure with the same C_f band, so the network screens and
//     refreshes that subexpression once (the sharing the SF parameter
//     controls).
//
// The whole network is fed through its root: Prepare submits every R3, R2
// and R1 tuple as a + token (uncharged), and the workload's update deltas
// arrive the same way — including R2 updates, which right-activate the
// join nodes.
func (w *World) buildRVM() proc.Strategy {
	p := w.cfg.Params
	width := int(p.S)
	store := cache.NewStore(w.pager.Disk())
	// Rete propagation rewrites entry files only inside update epochs, so
	// they stay MVCC-versioned like AVM's (docs/MVCC.md).
	store.SetMaintained()
	net := rete.NewNetwork(w.pager.Disk())
	net.SetNaiveDispatch(w.cfg.Ablations.NaiveReteDispatch)
	s1, s2, s3 := w.r1.Schema(), w.r2.Schema(), w.r3.Schema()

	// clusterKey clusters a memory of sch on (field, tid), resolving both
	// names once rather than per token.
	clusterKey := func(sch *tuple.Schema, field string) func([]byte) uint64 {
		f, id := sch.MustFieldIndex(field), sch.MustFieldIndex("tid")
		return func(tup []byte) uint64 { return tuple.ClusterKey(sch.Get(tup, f), sch.Get(tup, id)) }
	}
	r1Key := clusterKey(s1, "skey")

	// Model 2 only: one α-memory of all of R3, keyed by the join attribute
	// d, shared by every P2 procedure's right-side join.
	var alphaR3 *rete.Memory
	if w.cfg.Model == costmodel.Model2 && p.N2 > 0 {
		tcR3 := net.TConst(s3, "d", 0, math.MaxInt32)
		alphaR3 = net.NewMemory(s3, nil, clusterKey(s3, "d"))
		tcR3.Attach(alphaR3)
	}

	// Left α-memories available for sharing, by C_f band.
	alphaByBand := map[[2]int64]*rete.Memory{}
	var entries []*cache.Entry

	for _, spec := range w.specs {
		entry := store.Define(cache.ID(spec.id), spec.def.ResultWidth())
		entries = append(entries, entry)
		if !spec.isP2 {
			tc := net.TConst(s1, "skey", spec.band[0], spec.band[1])
			mem := net.NewMemory(s1, entry.File(), r1Key)
			tc.Attach(mem)
			if _, taken := alphaByBand[spec.band]; !taken {
				alphaByBand[spec.band] = mem
			}
			continue
		}

		// Left input: shared α if available, else a private t-const + α.
		left := alphaByBand[spec.band]
		if !spec.shared || left == nil {
			tc := net.TConst(s1, "skey", spec.band[0], spec.band[1])
			left = net.NewMemory(s1, nil, r1Key)
			tc.Attach(left)
		}

		// Right input: t-const(C_f2) → α(σR2); in model 2 that α joins the
		// shared α(R3) into a β clustered by the outer join attribute b.
		tc2 := net.TConst(s2, "p2", spec.p2Band[0], spec.p2Band[1])
		var right *rete.Memory
		if w.cfg.Model == costmodel.Model1 {
			right = net.NewMemory(s2, nil, clusterKey(s2, "b"))
			tc2.Attach(right)
		} else {
			alphaR2 := net.NewMemory(s2, nil, clusterKey(s2, "c"))
			tc2.Attach(alphaR2)
			and23 := net.NewAndNode(alphaR2, alphaR3, "c", "d", "r3_", width)
			right = net.NewMemory(and23.Schema(), nil, clusterKey(and23.Schema(), "b"))
			and23.Attach(right)
		}

		and := net.NewAndNode(left, right, "a", "b", "r2_", width)
		beta := net.NewMemory(and.Schema(), entry.File(), clusterKey(and.Schema(), "skey"))
		and.Attach(beta)
	}

	// Prepare loads the entire database through the network root, bottom
	// relation first so joins find their partners; then marks every
	// procedure's cache entry valid. The caller runs it uncharged. Each
	// token carries the scanned record itself: nodes copy what they keep.
	prepare := func(pg *storage.Pager) {
		submit := func(rel string) func([]byte) bool {
			return func(rec []byte) bool {
				net.Submit(pg, rel, rete.Token{Tag: rete.Plus, Tuple: rec})
				return true
			}
		}
		w.r3.Hash().ScanAll(pg, submit("r3"))
		w.r2.Hash().ScanAll(pg, submit("r2"))
		w.r1.Tree().ScanAll(pg, submit("r1"))
		for _, e := range entries {
			e.MarkValid(pg)
		}
	}
	return proc.NewUpdateCache(w.mgr, store, rete.NewEngine(net, store, prepare))
}
