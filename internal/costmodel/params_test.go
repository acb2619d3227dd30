package costmodel

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultDerivedQuantities(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("default parameters invalid: %v", err)
	}
	if got := p.TuplesPerBlock(); got != 40 {
		t.Errorf("TuplesPerBlock = %v, want 40", got)
	}
	if got := p.Blocks(); got != 2500 {
		t.Errorf("Blocks = %v, want 2500", got)
	}
	if got := p.FStar(); math.Abs(got-0.0001) > 1e-12 {
		t.Errorf("FStar = %v, want 0.0001", got)
	}
	if got := p.NumProcs(); got != 200 {
		t.Errorf("NumProcs = %v, want 200", got)
	}
	if got := p.UpdatesPerQuery(); got != 1 {
		t.Errorf("UpdatesPerQuery = %v, want 1", got)
	}
	if got := p.UpdateProbability(); got != 0.5 {
		t.Errorf("UpdateProbability = %v, want 0.5", got)
	}
	// fN = 100 qualifying tuples; fanout 200; one level.
	if got := p.BTreeHeight(); got != 1 {
		t.Errorf("BTreeHeight = %v, want 1", got)
	}
	// P1: ceil(0.001*2500) = 3 pages; P2: ceil(0.0001*2500) = 1 page.
	if got := p.ProcSize(); got != 2 {
		t.Errorf("ProcSize = %v, want 2", got)
	}
}

func TestPaperSizeClaims(t *testing.T) {
	p := Default()
	// "type P1 procedures contain fN = 100 tuples. Type P2 procedures
	// contain f*N = 10 tuples for the default parameters."
	if got := p.F * p.N; got != 100 {
		t.Errorf("P1 tuples = %v, want 100", got)
	}
	if got := p.FStar() * p.N; math.Abs(got-10) > 1e-9 {
		t.Errorf("P2 tuples = %v, want 10", got)
	}
}

func TestWithUpdateProbability(t *testing.T) {
	p := Default()
	for _, up := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		q := p.WithUpdateProbability(up)
		if got := q.UpdateProbability(); math.Abs(got-up) > 1e-12 {
			t.Errorf("round trip P=%v gave %v", up, got)
		}
		if q.Q != p.Q {
			t.Errorf("Q changed from %v to %v", p.Q, q.Q)
		}
	}
}

func TestWithUpdateProbabilityPanicsOutOfRange(t *testing.T) {
	for _, up := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithUpdateProbability(%v) did not panic", up)
				}
			}()
			Default().WithUpdateProbability(up)
		}()
	}
}

func TestBTreeHeightGrowsWithResultSize(t *testing.T) {
	p := Default()
	p.F = 1 // full relation: 100,000 tuples, fanout 200 -> ceil(log200 1e5)=3
	if got := p.BTreeHeight(); got != 3 {
		t.Errorf("BTreeHeight(f=1) = %v, want 3", got)
	}
	p.F = 1.0 / p.N // single tuple
	if got := p.BTreeHeight(); got != 1 {
		t.Errorf("BTreeHeight(single tuple) = %v, want 1", got)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.S = 0 },
		func(p *Params) { p.S = p.B + 1 },
		func(p *Params) { p.D = 0 },
		func(p *Params) { p.Q = 0 },
		func(p *Params) { p.K = -1 },
		func(p *Params) { p.F = 1.5 },
		func(p *Params) { p.F2 = -0.1 },
		func(p *Params) { p.FR2 = -1 },
		func(p *Params) { p.C2 = -1 },
		func(p *Params) { p.N1, p.N2 = 0, 0 },
		func(p *Params) { p.SF = 2 },
		func(p *Params) { p.Z = 0 },
		func(p *Params) { p.Z = 1 },
		func(p *Params) { p.N = math.NaN() },
		func(p *Params) { p.K = math.Inf(1) },
		func(p *Params) { p.Q = math.Inf(1) },
		func(p *Params) { p.C2 = math.Inf(1) },
		func(p *Params) { p.L = math.NaN() },
		func(p *Params) { p.F = math.NaN() },
		func(p *Params) { p.Z = math.NaN() },
		func(p *Params) { p.FR3 = math.Inf(-1) },
	}
	for i, mutate := range bad {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid parameters %+v", i, p)
		} else if !strings.Contains(err.Error(), "costmodel") {
			t.Errorf("case %d: error %q lacks package prefix", i, err)
		}
	}
}

func TestProcSizeNoProcedures(t *testing.T) {
	p := Default()
	p.N1, p.N2 = 0, 0
	if got := p.ProcSize(); got != 0 {
		t.Errorf("ProcSize with no procedures = %v, want 0", got)
	}
}

func TestLinSpaceLogSpace(t *testing.T) {
	lin := LinSpace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(lin[i]-want[i]) > 1e-12 {
			t.Fatalf("LinSpace = %v, want %v", lin, want)
		}
	}
	log := LogSpace(0.001, 0.1, 3)
	wantLog := []float64{0.001, 0.01, 0.1}
	for i := range wantLog {
		if math.Abs(log[i]-wantLog[i])/wantLog[i] > 1e-9 {
			t.Fatalf("LogSpace = %v, want %v", log, wantLog)
		}
	}
	for _, fn := range []func(){
		func() { LinSpace(1, 0, 5) },
		func() { LinSpace(0, 1, 1) },
		func() { LogSpace(0, 1, 5) },
		func() { LogSpace(0.1, 0.01, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for degenerate spacing")
				}
			}()
			fn()
		}()
	}
}
