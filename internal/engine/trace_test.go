package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/metric"
	"dbproc/internal/obs"
	"dbproc/internal/sim"
)

// rootOnlyAttrs are the attributes the engine's commit step sets on an
// op's root span; a sequential trace has none of them.
var rootOnlyAttrs = map[string]bool{
	"session": true, "seq": true, "phase": true, "wall_wait_ns": true,
	"blame_sessions": true, "blame_locks": true,
}

// TestOneClientTraceMatchesSimRun: one session traced through the engine
// writes sim.Run's trace span for span — ids, parents, names, placement,
// cost and every attribute — plus only the commit step's root-span
// attributes.
func TestOneClientTraceMatchesSimRun(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	var cfgs []sim.Config
	for _, strat := range allStrategies {
		for _, model := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
			cfgs = append(cfgs, testConfig(strat, model, 77, 12, 24))
		}
	}
	cfgs = append(cfgs, scenarioConfig("storm-adversarial", costmodel.CacheInvalidate, costmodel.Model2, 78, 12, 24))
	for _, cfg := range cfgs {
		name := fmt.Sprintf("%v/%v", cfg.Strategy, cfg.Model)
		if cfg.Scenario != "" {
			name += "/" + cfg.Scenario
		}
		t.Run(name, func(t *testing.T) {
			seqCfg := cfg
			seqCfg.Tracer = obs.NewTracer()
			sim.Run(seqCfg)
			cfg.Tracer = obs.NewTracer()
			New(cfg, Options{Clients: 1}).Run(context.Background())

			want, got := seqCfg.Tracer.Spans(), cfg.Tracer.Spans()
			if len(got) != len(want) {
				t.Fatalf("engine traced %d spans, sim.Run %d", len(got), len(want))
			}
			children := 0
			for i, w := range want {
				g := got[i]
				if g.ID != w.ID || g.Parent != w.Parent || g.Name != w.Name ||
					g.StartMs != w.StartMs || g.DurMs != w.DurMs || g.Counters != w.Counters {
					t.Fatalf("span %d: engine %d/%d %s at %v for %v %+v, sim.Run %d/%d %s at %v for %v %+v", i,
						g.ID, g.Parent, g.Name, g.StartMs, g.DurMs, g.Counters,
						w.ID, w.Parent, w.Name, w.StartMs, w.DurMs, w.Counters)
				}
				if w.Parent != 0 {
					children++
				}
				for k, v := range w.Attrs {
					if g.Attrs[k] != v {
						t.Fatalf("span %d (%s): attr %s = %v, sim.Run has %v", i, w.Name, k, g.Attrs[k], v)
					}
				}
				for k := range g.Attrs {
					if _, seq := w.Attrs[k]; !seq && (g.Parent != 0 || !rootOnlyAttrs[k]) {
						t.Fatalf("span %d (%s): engine adds attr %s", i, g.Name, k)
					}
				}
				if g.Parent == 0 && g.Attrs["session"] != 0 {
					t.Fatalf("root span %d carries session %v, want 0", i, g.Attrs["session"])
				}
			}
			if children == 0 {
				t.Fatal("trace holds no strategy child span")
			}
		})
	}
}

// TestConcurrentTraceNests: with four sessions, every op's span tree
// lands whole in the run's trace. The root spans tile the run's cost —
// each starts at the cost committed before it, and their counters sum
// exactly to Result.Counters — every other span's parent lies in its own
// op's tree and costs no more than its parent, and the strategy's child
// spans are there. At one session, tracing changes nothing the run
// measures.
func TestConcurrentTraceNests(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	childName := map[costmodel.Strategy]string{
		costmodel.AlwaysRecompute: "recompute.scan",
		costmodel.CacheInvalidate: "ci.refresh",
		costmodel.UpdateCacheAVM:  "avm.route",
		costmodel.UpdateCacheRVM:  "rete.propagate",
	}
	for _, strat := range allStrategies {
		for _, model := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
			t.Run(fmt.Sprintf("%v/%v", strat, model), func(t *testing.T) {
				cfg := testConfig(strat, model, 4041, 24, 40)
				cfg.Tracer = obs.NewTracer()
				e := New(cfg, Options{Clients: 4, ThinkMeanMs: 0.05})
				res := e.Run(context.Background())
				costs := e.World().Meter().Costs()

				var committed metric.Counters
				byID := map[int64]*obs.Span{}
				var root *obs.Span
				roots, named := 0, 0
				for _, sp := range cfg.Tracer.Spans() {
					byID[sp.ID] = sp
					if sp.Name == childName[strat] {
						named++
					}
					if sp.Parent == 0 {
						if sp.Name != "op.query" && sp.Name != "op.update" {
							t.Fatalf("root span %d is %s", sp.ID, sp.Name)
						}
						if sp.Attrs["seq"] != roots {
							t.Fatalf("root span %d carries seq %v, want %d (commit order)", sp.ID, sp.Attrs["seq"], roots)
						}
						if _, ok := sp.Attrs["session"]; !ok {
							t.Fatalf("root span %d carries no session", sp.ID)
						}
						if want := committed.Milliseconds(costs); sp.StartMs != want {
							t.Fatalf("root span %d starts at %v, want the committed cost %v", sp.ID, sp.StartMs, want)
						}
						committed = committed.Add(sp.Counters)
						root = sp
						roots++
						continue
					}
					parent := byID[sp.Parent]
					if root == nil || parent == nil || sp.Parent < root.ID || sp.Parent >= sp.ID {
						t.Fatalf("span %d (%s) has parent %d outside its op's tree (root %v)", sp.ID, sp.Name, sp.Parent, root)
					}
					if c, p := sp.Counters, parent.Counters; c.PageReads > p.PageReads || c.PageWrites > p.PageWrites ||
						c.Screens > p.Screens || c.DeltaOps > p.DeltaOps || c.Invalidations > p.Invalidations {
						t.Fatalf("span %d (%s) costs %+v, more than its parent %s's %+v", sp.ID, sp.Name, c, parent.Name, p)
					}
				}
				if roots != res.Ops {
					t.Fatalf("%d root spans for %d committed ops", roots, res.Ops)
				}
				if committed != res.Counters {
					t.Fatalf("root spans sum to %+v, the run measured %+v", committed, res.Counters)
				}
				if named == 0 {
					t.Fatalf("no %s span in the trace", childName[strat])
				}

				// One session, traced and untraced, measures the same run.
				one := testConfig(strat, model, 4041, 24, 40)
				off := New(one, Options{Clients: 1}).Run(context.Background())
				one.Tracer = obs.NewTracer()
				on := New(one, Options{Clients: 1}).Run(context.Background())
				if on.Counters != off.Counters || on.SimTotalMs != off.SimTotalMs || on.HistoryDigest != off.HistoryDigest {
					t.Fatalf("tracing moved a 1-session run: %+v %v %s vs %+v %v %s",
						on.Counters, on.SimTotalMs, on.HistoryDigest, off.Counters, off.SimTotalMs, off.HistoryDigest)
				}
			})
		}
	}
}
