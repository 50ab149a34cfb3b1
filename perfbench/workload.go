package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// workload is one fleet and scenario the benchmark runs. The program under
// test only sees the sim.Config built here and the scenario's Sim.At /
// SetExtraLoadUnder calls.
type workload struct {
	name string
	// servers is the topology.Spec.Scale target.
	servers int
	// dynamo turns the controller hierarchy on (with checkpointing and cap
	// leases); off means open loop with trip outages disabled.
	dynamo bool
	// derate divides the MSB/SB/RPP ratings so the fleet must be capped;
	// 0 keeps the paper's OCP ratings.
	derate float64
	// surge rotates +surgeLoad extra load across quarters of the RPPs.
	surge bool
	// tickWorkers overrides sim.Config.TickWorkers when positive.
	tickWorkers int
	// periodsPerSecond sets the timed window: --seconds × this many 3 s
	// periods. Calibrated so one window takes about --seconds of host time
	// on a 2 vCPU Xeon @ 2.1 GHz.
	periodsPerSecond float64
}

// There is no uncapped, read-only 10k workload. On a shared 2 vCPU host its
// timings spread 9-11 % between seeds and its medians moved 12-14 % between
// two sets of the same runs, and the time allowed for all runs does not fit
// three workloads at 30 s each. capping-10k runs the same read path beside
// its writes.
var workloads = []workload{
	{name: "capping-10k", servers: 10000, dynamo: true, derate: 1.4, surge: true, periodsPerSecond: 12.5},
	// openloop-48k steps physics on one worker. With two, every tick waits
	// for the slower shard, and on a shared 2 vCPU host the period tail
	// then swung by 28-42 % between identical runs.
	{name: "openloop-48k", servers: 40000, tickWorkers: 1, periodsPerSecond: 15},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// period is the leaf poll period; the benchmark advances the fleet one
	// period at a time. Boundaries sit 500 ms after each poll instant, where
	// no event is due: the poll's RPCs have settled and the next physics
	// tick is half a second away.
	period       = 3 * time.Second
	periodOffset = 500 * time.Millisecond
	// warmPeriods run before any measurement: the first surge lands at 30 s,
	// so the 10k capping fleet is already capped when the window opens.
	warmPeriods = 20

	capLeaseTTL   = 12 * time.Second
	surgeLoad     = 0.35
	surgeStart    = 30 * time.Second
	surgeEvery    = 45 * time.Second
	surgeQuarters = 4
	surgeSeedSalt = 0x5ca1ab1e
)

// periodEnd is the simulated time at which period k (1-based) ends.
func periodEnd(k int) time.Duration {
	return time.Duration(k)*period + periodOffset
}

// config builds the simulator configuration for a seed. servers overrides
// the fleet size when positive (the benchmark's own tests use tiny fleets).
func (w workload) config(seed int64, servers int) sim.Config {
	if servers <= 0 {
		servers = w.servers
	}
	spec := topology.DefaultSpec().Scale(servers)
	spec.Services = steadyServices(spec.Services)
	if w.derate > 0 {
		d := power.Watts(w.derate)
		spec.MSBRating = power.ClassMSB.DefaultRating() / d
		spec.SBRating = power.ClassSB.DefaultRating() / d
		spec.RPPRating = power.ClassRPP.DefaultRating() / d
	}
	cfg := sim.Config{Spec: spec, Seed: seed, EnableDynamo: w.dynamo, TickWorkers: w.tickWorkers}
	if w.dynamo {
		cfg.Checkpoint = true
		cfg.CapLeaseTTL = capLeaseTTL
	} else {
		cfg.DisableTripOutage = true
	}
	return cfg
}

// steadyServices drops the batch service (hadoop) from the mix. Its job
// wave is one service-wide square wave whose phase the seed draws: in any
// window shorter than the 3 h wave period, a fifth of the fleet is either
// in a wave or quiesced for the whole run, which splits every seed's load,
// capping depth and host time into two clusters.
func steadyServices(mix []topology.ServiceShare) []topology.ServiceShare {
	var out []topology.ServiceShare
	for _, sh := range mix {
		if sh.Service != "hadoop" {
			out = append(out, sh)
		}
	}
	return out
}

// scenario schedules the workload's load changes. The surge puts extra
// load under one quarter of the RPPs at a time, moving to the next quarter
// every surgeEvery. Quarters interleave the RPPs in topology order, so each
// spans both SBs; the seed picks the quarter the rotation starts from.
func (w workload) scenario(s *sim.Sim, seed int64) {
	if !w.surge {
		return
	}
	rpps := s.Topo.OfKind(topology.KindRPP)
	step := rand.New(rand.NewPCG(uint64(seed), surgeSeedSalt)).IntN(surgeQuarters)
	var active []topology.NodeID
	var rotate func()
	rotate = func() {
		for _, id := range active {
			s.SetExtraLoadUnder(id, 0)
		}
		active = active[:0]
		for i, rpp := range rpps {
			if i%surgeQuarters == step%surgeQuarters {
				active = append(active, rpp.ID)
			}
		}
		for _, id := range active {
			s.SetExtraLoadUnder(id, surgeLoad)
		}
		step++
		s.At(s.Loop.Now()+surgeEvery, rotate)
	}
	s.At(surgeStart, rotate)
}
