package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dynamo/internal/monitor"
	"dynamo/internal/power"
	"dynamo/internal/telemetry"
	"dynamo/internal/topology"
)

// TestIncrementalMatchesFullOnRandomTopology is the incremental pass's
// cross-check: at epsilon=0, after every tick, the snapshot must be
// bitwise identical to the production full rebuild, on randomized
// topologies, through quiescent stretches, load bursts, capping episodes,
// breaker trips, and DCUPS recharges.
func TestIncrementalMatchesFullOnRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		spec := topology.DefaultSpec()
		spec.MSBs = 1
		spec.SBsPerMSB = 1 + rng.Intn(2)
		spec.RPPsPerSB = 1 + rng.Intn(3)
		spec.RacksPerRPP = 1 + rng.Intn(3)
		spec.ServersPerRack = 8 + rng.Intn(25)
		spec.SwitchPerRack = trial%2 == 0
		// Tight enough that the surge forces capping and possibly trips.
		spec.RackRating = power.Watts(float64(spec.ServersPerRack) * 330)
		spec.RPPRating = power.Watts(float64(spec.ServersPerRack*spec.RacksPerRPP) * 280)
		seed := rng.Int63n(1000) + 1
		workers := 1 + rng.Intn(8)
		surge := 0.7 + 0.2*rng.Float64()

		s, err := New(Config{
			Spec:         spec,
			Seed:         seed,
			EnableDynamo: true,
			TickWorkers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		rpp := s.Topo.OfKind(topology.KindRPP)[0]
		s.At(time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, surge) })
		s.At(3*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
		s.At(4*time.Minute, func() { s.RestoreDevice(rpp.ID) })
		s.Start()
		checked := checkFullRebuildEachTick(t, s)
		// Surge, post-burst, then a decaying recharge and a quiescent tail.
		s.Run(5*time.Minute + 30*time.Second)
		if want := int(s.Loop.Now() / s.Cfg.TickInterval); *checked != want {
			t.Fatalf("trial %d: checked %d ticks, want %d", trial, *checked, want)
		}
		if st := s.AggregationStats(); st.IncrementalPasses == 0 {
			t.Fatalf("trial %d: the sim never took the incremental path", trial)
		}
	}
}

// TestEpsilonDriftBounded checks the epsilon>0 accuracy contract: every
// device's snapshot entry, and the root's, stays within epsilon ×
// (servers in its subtree) of the true subtree draw, through bursts,
// capping, and recharges.
func TestEpsilonDriftBounded(t *testing.T) {
	const eps = power.Watts(3)
	spec := detSpec()
	s, err := New(Config{
		Spec:               spec,
		Seed:               17,
		EnableDynamo:       true,
		TickWorkers:        4,
		AggregationEpsilon: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.At(2*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0.9) })
	s.At(5*time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0) })
	s.At(6*time.Minute, func() { s.RestoreDevice(rpp.ID) })

	maxDrift := 0.0
	for i := 0; i < 8; i++ {
		s.Run(time.Minute)
		for _, dev := range append(s.Topo.Devices(), s.Topo.Root) {
			snap := float64(s.DevicePower(dev.ID))
			oracle := float64(s.devicePowerWalk(dev.ID))
			drift := math.Abs(snap - oracle)
			if drift > maxDrift {
				maxDrift = drift
			}
			// The spec has no cappable switches: servers are the leaves.
			leaves := len(dev.Servers())
			bound := float64(eps)*float64(leaves) + 1e-6*(1+math.Abs(oracle))
			if drift > bound {
				t.Fatalf("at %v: %s drift %.6f exceeds bound %.6f (eps %v × %d leaves)",
					s.Loop.Now(), dev.ID, drift, bound, eps, leaves)
			}
		}
	}
	if maxDrift == 0 {
		t.Fatal("epsilon=3 run showed zero drift; bound check is vacuous")
	}
	if st := s.AggregationStats(); st.DirtyServers >= st.Servers {
		t.Fatalf("epsilon=3 marked the whole fleet dirty (%d/%d); gating is vacuous",
			st.DirtyServers, st.Servers)
	}
}

// TestDevicePowerBetweenTicks checks a DevicePower query that lands
// between ticks during an active recharge: the answer tracks the recharge
// decay at the query instant, matching the side-effect-free walk.
func TestDevicePowerBetweenTicks(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 8
	s, err := New(Config{Spec: spec, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rack := s.Topo.OfKind(topology.KindRack)[0]
	s.At(61*time.Second, func() { s.RestoreDevice(rack.ID) }) // start a recharge

	probed := false
	s.At(90*time.Second+500*time.Millisecond, func() {
		probed = true
		if s.snap.at == s.Loop.Now() {
			t.Fatal("probe landed on a tick instant; staleness check is vacuous")
		}
		if rec := float64(s.rechargePeek(rack.ID, s.Loop.Now())); rec <= 0 {
			t.Fatal("no active recharge at probe time; time-dependence check is vacuous")
		}
		got := float64(s.DevicePower(rack.ID))
		walk := float64(s.devicePowerWalk(rack.ID))
		if diff := math.Abs(got - walk); diff > 1e-6*(1+math.Abs(walk)) {
			t.Errorf("rack power between ticks %.9f != walk %.9f", got, walk)
		}
	})
	s.Run(2 * time.Minute)
	if !probed {
		t.Fatal("probe callback never ran")
	}
}

// TestRootMatchesFleetTotal checks the root's snapshot slot against the
// fleet total: DevicePower of the root is TotalPower plus the active DCUPS
// recharges, while a restore's recharge runs and after it has decayed.
func TestRootMatchesFleetTotal(t *testing.T) {
	s, err := New(Config{Spec: tinySpec(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.At(time.Minute, func() { s.RestoreDevice(rpp.ID) })
	check := func(when string, recharging bool) {
		t.Helper()
		var rech power.Watts
		for _, rack := range s.Topo.OfKind(topology.KindRack) {
			rech += s.rechargePeek(rack.ID, s.Loop.Now())
		}
		if (rech > 0) != recharging {
			t.Fatalf("%s: recharge draw %v, want recharging=%v", when, rech, recharging)
		}
		root := float64(s.DevicePower(s.Topo.Root.ID))
		want := float64(s.TotalPower() + rech)
		if diff := math.Abs(root - want); diff > 1e-9*math.Abs(want) {
			t.Errorf("%s: root %.9f != total + recharges %.9f", when, root, want)
		}
	}
	s.Run(time.Minute) // the restore fires at this instant
	check("at restore", true)
	s.Run(30 * time.Second)
	check("during recharge", true)
	s.Run(45 * time.Minute) // > 5 time constants
	check("after recharge", false)
}

// TestQuiescenceStats checks the quiescence telemetry: a huge epsilon
// makes every post-warmup tick quiescent (zero dirty servers, zero
// re-aggregated devices), epsilon=0 reports real work, and the monitor
// publishes the converted sample on its gauges.
func TestQuiescenceStats(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 2
	spec.RacksPerRPP, spec.ServersPerRack = 2, 8

	quiet, err := New(Config{Spec: spec, Seed: 4, AggregationEpsilon: power.KW(10)})
	if err != nil {
		t.Fatal(err)
	}
	quiet.Run(2 * time.Minute)
	qs := quiet.AggregationStats()
	if qs.FullRebuilds != 1 {
		t.Errorf("full rebuilds = %d, want exactly the init pass", qs.FullRebuilds)
	}
	if qs.IncrementalPasses == 0 {
		t.Error("no incremental passes recorded")
	}
	if qs.DirtyServers != 0 || qs.ReaggregatedDevices != 0 {
		t.Errorf("10kW epsilon still reports dirty=%d reagg=%d", qs.DirtyServers, qs.ReaggregatedDevices)
	}

	busy, err := New(Config{Spec: spec, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	busy.Run(2 * time.Minute)
	bs := busy.AggregationStats()
	if bs.DirtyServers == 0 || bs.ReaggregatedDevices == 0 {
		t.Errorf("epsilon=0 reports no work (dirty=%d reagg=%d)", bs.DirtyServers, bs.ReaggregatedDevices)
	}
	if bs.WorkloadActivity <= 0 {
		t.Errorf("workload activity hint = %v, want > 0", bs.WorkloadActivity)
	}

	tel := telemetry.NewSink()
	mon := monitor.New(monitor.Config{Telemetry: tel})
	mon.ObserveQuiescence(busy.QuiescenceSample())
	if got := tel.Gauge("dynamo_monitor_dirty_servers").Value(); got != float64(bs.DirtyServers) {
		t.Errorf("dirty-servers gauge = %v, want %d", got, bs.DirtyServers)
	}
	if got := tel.Gauge("dynamo_monitor_reaggregated_devices").Value(); got != float64(bs.ReaggregatedDevices) {
		t.Errorf("reaggregated-devices gauge = %v, want %d", got, bs.ReaggregatedDevices)
	}
	if got := mon.LastQuiescence(); got.Servers != bs.Servers || got.DirtyServers != bs.DirtyServers {
		t.Errorf("LastQuiescence = %+v, want to mirror %+v", got, bs)
	}
}

// TestSnapshotVersionBumpsPerPass checks the snapshot version consumers
// use for change detection: one bump per committed global pass.
func TestSnapshotVersionBumpsPerPass(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.MSBs, spec.SBsPerMSB, spec.RPPsPerSB = 1, 1, 1
	spec.RacksPerRPP, spec.ServersPerRack = 1, 4
	s, err := New(Config{Spec: spec, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Second)
	v := s.SnapshotVersion()
	if v == 0 {
		t.Fatal("snapshot version never bumped")
	}
	s.Run(5 * time.Second) // 5 more ticks at the default 1s interval
	if got := s.SnapshotVersion(); got != v+5 {
		t.Errorf("version advanced %d -> %d over 5 ticks, want +5", v, got)
	}
	if s.TotalPower() <= 0 {
		t.Error("total power not positive")
	}
	if got := s.SnapshotVersion(); got != v+5 {
		t.Errorf("TotalPower bumped the version to %d; lazy total must not re-aggregate", got)
	}
}
