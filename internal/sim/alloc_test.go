package sim

import (
	"testing"
	"time"

	"dynamo/internal/race"
	"dynamo/internal/server"
	"dynamo/internal/topology"
	"dynamo/internal/workload"
)

// TestSimTickSteadyStateAllocs gates the physics tick at zero
// allocations: workload step, server physics, dirty tracking,
// incremental aggregation and breakers for a 1k-server open-loop fleet
// with telemetry off. The loop's ticker is stopped and the clock moved by
// hand, because the ticker allocates a timer for each period; the pass
// runs on one worker, because a sharded pass starts its goroutines per
// tick.
func TestSimTickSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, err := New(Config{Spec: topology.DefaultSpec().Scale(1000), Seed: 3, TickWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(time.Minute) // warm up: grow dirty lists and scratch to steady size
	s.ticker.Stop()
	dirty := 0
	allocs := testing.AllocsPerRun(100, func() {
		s.Loop.RunFor(s.Cfg.TickInterval)
		s.tick()
		dirty += s.statDirtyServers
	})
	if dirty == 0 {
		t.Fatal("no server moved: the ticks did no physics")
	}
	if allocs != 0 {
		t.Errorf("%.1f allocs per steady-state tick, want 0", allocs)
	}
}

// BenchmarkServerTick measures one server's physics step (workload draw,
// RAPL slew and power model) across a fleet of 1k web servers, reporting
// ns/op and B/op per server.
func BenchmarkServerTick(b *testing.B) {
	const n = 1000
	sh := workload.NewShared(workload.MustLookup("web"), 1)
	servers := make([]*server.Server, n)
	for i := range servers {
		gen := workload.NewGenerator(sh, int64(i+2))
		servers[i] = server.New(server.Config{
			ID: "s", Service: "web", Model: server.MustModel("haswell2015"),
			Source: server.LoadFunc(gen.Step),
		})
	}
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			now += time.Second
			sh.Advance(now)
		}
		servers[i%n].Tick(now)
	}
}
