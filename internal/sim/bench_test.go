package sim

import (
	"testing"

	"dbproc/internal/costmodel"
)

func BenchmarkBuildFullScale(b *testing.B) {
	cfg := Config{Params: costmodel.Default(), Model: costmodel.Model1, Strategy: costmodel.UpdateCacheRVM, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(cfg)
	}
}

func benchOps(b *testing.B, s costmodel.Strategy) {
	p := costmodel.Default()
	w := Build(Config{Params: p, Model: costmodel.Model1, Strategy: s, Seed: 1})
	ids := w.ProcIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Update()
		w.Access(ids[i%len(ids)])
	}
}

func BenchmarkOpPairRecompute(b *testing.B) { benchOps(b, costmodel.AlwaysRecompute) }

func BenchmarkOpPairCacheInvalidate(b *testing.B) { benchOps(b, costmodel.CacheInvalidate) }

func BenchmarkOpPairUpdateCacheAVM(b *testing.B) { benchOps(b, costmodel.UpdateCacheAVM) }

func BenchmarkOpPairUpdateCacheRVM(b *testing.B) { benchOps(b, costmodel.UpdateCacheRVM) }

// BenchmarkBuild opens the worlds of the benchmark's three world
// workloads (benchmark/spec): what a served WorldOpen pays before its
// first op.
func BenchmarkBuild(b *testing.B) {
	shape := func(s costmodel.Strategy, m costmodel.Model, k, q float64, joinsOnly bool) Config {
		p := costmodel.Default()
		p.K, p.Q, p.Z = k, q, 0.5
		if joinsOnly {
			p.F, p.N1, p.N2 = 0.01, 0, 200
		}
		return Config{Params: p, Model: m, Strategy: s, Seed: 1}
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"hot-read", shape(costmodel.UpdateCacheAVM, costmodel.Model1, 4_000, 500_000, false)},
		{"recompute-scan", shape(costmodel.AlwaysRecompute, costmodel.Model2, 4_000, 26_000, true)},
		{"update-heavy", shape(costmodel.UpdateCacheRVM, costmodel.Model1, 35_000, 35_000, false)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(c.cfg)
			}
		})
	}
}
