package workload

// updateBit marks an update in a Stream's op word; the low 31 bits of a
// query's word hold its ProcID.
const updateBit = 1 << 31

// Stream is a generated operation stream in compact form: one 4-byte
// word per op, a second 4-byte column for the ops of nesting phases, and
// a per-phase table. At rebuilds op i, so a world deals its whole
// workload from about 4 bytes per op instead of holding a 56-byte Op for
// each. Phases are contiguous, so an op's phase, and with it every
// per-phase attribute, follows from its position.
type Stream struct {
	code []uint32
	// nest holds the raw 30-bit NestSeed draw of each op of a nesting
	// phase, from that phase's nestBase on; updates keep an unused slot
	// so the shuffle can swap both columns alike. Nil when no phase nests.
	nest   []uint32
	phases []streamPhase
}

// streamPhase is the per-phase table entry: where the phase starts, and
// the profile whose L and Adversarial its updates carry and whose Nest
// and Batch its queries carry.
type streamPhase struct {
	start, nestBase int
	Profile
}

// Len is the number of ops in the stream.
func (s *Stream) Len() int { return len(s.code) }

// At rebuilds op i of the stream.
func (s *Stream) At(i int) Op {
	p := len(s.phases) - 1
	for s.phases[p].start > i {
		p--
	}
	ph := &s.phases[p]
	op := Op{Index: i, Phase: p}
	c := s.code[i]
	if c&updateBit != 0 {
		op.Kind = Update
		op.L, op.Adversarial = ph.L, ph.Adversarial
		return op
	}
	op.ProcID = int(c)
	if ph.Nest > 0 {
		op.Nest, op.Batch = ph.Nest, ph.Batch
		op.NestSeed = int64(splitmix64(uint64(s.nest[ph.nestBase+i-ph.start])))
	}
	return op
}

// appendPhase draws one phase from g and appends it: ph.K updates and
// ph.Q queries, then one shuffle of the phase that swaps every column.
// A query hits the storm procedure with probability ph.Theta and draws
// a skewed pick otherwise; a nesting phase's queries also draw their
// NestSeed. These are the draws, in the order, that the stream has
// always been generated with, so a seed replays the same ops and leaves
// g in the same state.
func (s *Stream) appendPhase(g *Generator, ph Profile, procIDs []int) {
	sp := streamPhase{start: len(s.code), nestBase: len(s.nest), Profile: ph}
	s.phases = append(s.phases, sp)
	for i := 0; i < ph.K; i++ {
		s.code = append(s.code, updateBit)
	}
	if ph.Nest > 0 {
		s.nest = append(s.nest, make([]uint32, ph.K)...)
	}
	for i := 0; i < ph.Q; i++ {
		var id int
		if ph.Theta > 0 && g.Float64() < ph.Theta {
			id = procIDs[ph.StormProc%len(procIDs)]
		} else {
			id = g.PickProc()
		}
		s.code = append(s.code, uint32(id))
		if ph.Nest > 0 {
			s.nest = append(s.nest, uint32(g.Intn(1<<30)))
		}
	}
	code := s.code[sp.start:]
	if ph.Nest == 0 {
		g.rng.Shuffle(len(code), func(i, j int) { code[i], code[j] = code[j], code[i] })
		return
	}
	nest := s.nest[sp.nestBase:]
	g.rng.Shuffle(len(code), func(i, j int) {
		code[i], code[j] = code[j], code[i]
		nest[i], nest[j] = nest[j], nest[i]
	})
}
