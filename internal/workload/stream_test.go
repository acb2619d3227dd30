package workload

import (
	"fmt"
	"testing"
	"unsafe"
)

// expand materialises a stream as one Op per operation.
func expand(s *Stream) []Op {
	ops := make([]Op, s.Len())
	for i := range ops {
		ops[i] = s.At(i)
	}
	return ops
}

// refSequence is the reference expansion of Generator.Sequence: the
// materialised []Op generation the compact stream replaced.
func refSequence(g *Generator, k, q int) []Op {
	ops := make([]Op, 0, k+q)
	for i := 0; i < k; i++ {
		ops = append(ops, Op{Kind: Update})
	}
	for i := 0; i < q; i++ {
		ops = append(ops, Op{Kind: Query, ProcID: g.PickProc()})
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].Index = i
	}
	return ops
}

// refScheduleOps is the reference expansion of Schedule.Stream.
func refScheduleOps(s *Schedule, seed int64, procIDs []int) []Op {
	var ops []Op
	for pi, ph := range s.Phases {
		g := New(phaseSeed(seed, pi), ph.Z, procIDs)
		phase := make([]Op, 0, ph.K+ph.Q)
		for i := 0; i < ph.K; i++ {
			phase = append(phase, Op{
				Kind:        Update,
				Phase:       pi,
				L:           ph.L,
				Adversarial: ph.Adversarial,
			})
		}
		for i := 0; i < ph.Q; i++ {
			op := Op{Kind: Query, Phase: pi}
			if ph.Theta > 0 && g.Float64() < ph.Theta {
				op.ProcID = procIDs[ph.StormProc%len(procIDs)]
			} else {
				op.ProcID = g.PickProc()
			}
			if ph.Nest > 0 {
				op.Nest = ph.Nest
				op.Batch = ph.Batch
				op.NestSeed = int64(splitmix64(uint64(g.Intn(1 << 30))))
			}
			phase = append(phase, op)
		}
		g.rng.Shuffle(len(phase), func(i, j int) { phase[i], phase[j] = phase[j], phase[i] })
		ops = append(ops, phase...)
	}
	for i := range ops {
		ops[i].Index = i
	}
	return ops
}

func sameOps(s *Stream, want []Op) error {
	if s.Len() != len(want) {
		return fmt.Errorf("stream has %d ops, reference %d", s.Len(), len(want))
	}
	for i := range want {
		if got := s.At(i); got != want[i] {
			return fmt.Errorf("op %d: stream %+v, reference %+v", i, got, want[i])
		}
	}
	return nil
}

// TestSequenceMatchesReference: the polite stream rebuilds, op for op,
// the ops the materialised generation drew from the same seed, and it
// leaves the generator where that generation did, so the update draws
// that follow it read the same numbers.
func TestSequenceMatchesReference(t *testing.T) {
	procs := []int{9, 3, 1<<31 - 1, 0, 70000, 12, 5, 8}
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		for _, z := range []float64{0.2, 0.5, 0.9} {
			for _, kq := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {30, 70}, {400, 2600}} {
				name := fmt.Sprintf("seed %d z %v k %d q %d", seed, z, kq[0], kq[1])
				g, ref := New(seed, z, procs), New(seed, z, procs)
				if err := sameOps(g.Sequence(kq[0], kq[1]), refSequence(ref, kq[0], kq[1])); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := 0; i < 8; i++ {
					if a, b := g.Intn(1<<30), ref.Intn(1<<30); a != b {
						t.Fatalf("%s: generator draw %d after generation is %d, reference %d", name, i, a, b)
					}
				}
			}
		}
	}
}

// TestScheduleStreamMatchesReference: every catalog scenario, and the
// polite schedule, rebuilds the reference ops: phases, per-phase L and
// adversarial marks, storm procedures, nesting and batching.
func TestScheduleStreamMatchesReference(t *testing.T) {
	procs := []int{9, 3, 1<<31 - 1, 0, 70000, 12, 5, 8}
	scenarios := append([]Scenario{nil}, Catalog()...)
	for _, base := range []Base{{K: 40, Q: 120, Z: 0.2, L: 5}, {K: 0, Q: 33, Z: 0.5, L: 1}, {K: 300, Q: 2000, Z: 0.3, L: 2}} {
		for _, sc := range scenarios {
			sch := BuildSchedule(sc, base)
			for seed := int64(1); seed <= 3; seed++ {
				if err := sameOps(sch.Stream(seed, procs), refScheduleOps(sch, seed, procs)); err != nil {
					t.Fatalf("%s seed %d: %v", sch.Describe(), seed, err)
				}
			}
		}
	}
}

// TestStreamBytesPerOp: a served world holds its whole stream (504 000
// ops for hot-read), so the per-op columns hold at most 4 bytes an op,
// and at most 8 when the phase nests; the phase table grows with the
// phases, not the ops.
func TestStreamBytesPerOp(t *testing.T) {
	perOp := func(s *Stream) float64 {
		b := int(unsafe.Sizeof(uint32(0))) * (cap(s.code) + cap(s.nest))
		return float64(b) / float64(s.Len())
	}
	if b := perOp(New(1, 0.5, ids(100)).Sequence(4_000, 100_000)); b > 4 {
		t.Errorf("polite stream holds %.2f bytes/op, want at most 4", b)
	}
	base := Base{K: 4_000, Q: 100_000, Z: 0.5, L: 5}
	for _, sc := range Catalog() {
		sch := BuildSchedule(sc, base)
		s := sch.Stream(1, ids(100))
		limit := 4.0
		if sch.Phases[0].Nest > 0 {
			limit = 8
		}
		if b := perOp(s); b > limit {
			t.Errorf("%s stream holds %.2f bytes/op, want at most %.0f", sc.Name(), b, limit)
		}
		if len(s.phases) != len(sch.Phases) {
			t.Errorf("%s stream has %d phase entries for %d phases", sc.Name(), len(s.phases), len(sch.Phases))
		}
	}
}
