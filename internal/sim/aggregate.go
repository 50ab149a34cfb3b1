package sim

import (
	"runtime"
	"sync"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/server"
	"dynamo/internal/topology"
)

// parallelTickMin is the fleet size below which sharding the physics tick
// costs more in goroutine handoff than it saves; small fleets tick
// serially regardless of the worker setting.
const parallelTickMin = 256

// aggDev is one snapshot slot's precomputed aggregation inputs: the
// tickList indices of the servers (and cappable switches) attached
// directly to it, its count of constant-draw switches, and the snapshot
// indices of its child devices. There is one slot per device, plus a last
// slot for the datacenter root when the root is not itself a device. The
// slots are ordered post-order, so children always carry smaller indices
// than their parents and one ascending pass aggregates the whole
// hierarchy — or any dirty subset of it.
type aggDev struct {
	id       topology.NodeID
	isRack   bool
	leafIdx  []int
	constSw  int
	children []int
	// parent is the snapshot index of the enclosing slot: the nearest
	// enclosing device, or the root's slot. -1 for the top slot.
	parent int
}

// snapshot is the per-tick power view every consumer reads: breaker
// observations, validators, recorders, Observations, DevicePower, and
// TotalPower. It is versioned: every committed aggregation pass bumps
// version, so consumers caching derived state can detect change cheaply.
type snapshot struct {
	at      time.Duration
	valid   bool
	version uint64
	dev     []power.Watts
	// Fleet total is computed lazily (TotalPower), in fixed server order,
	// so the per-tick hot path never pays for an O(N) sum nobody reads.
	total      power.Watts
	totalAt    time.Duration
	totalValid bool
}

// AggregationStats describes how much work the incremental aggregation
// pipeline actually did — the quiescence signal the monitor publishes.
type AggregationStats struct {
	// DirtyServers is how many servers moved beyond the epsilon on the
	// last committed pass.
	DirtyServers int
	// ReaggregatedDevices is how many snapshot slots the last committed
	// pass recomputed (dirty homes plus their changed ancestor chains).
	ReaggregatedDevices int
	// Servers is the fleet size; Devices counts the snapshot slots (every
	// device, plus the root when it is not one). Both feed ratio gauges.
	Servers int
	Devices int
	// IncrementalPasses and FullRebuilds count committed passes since
	// start.
	IncrementalPasses uint64
	FullRebuilds      uint64
	// WorkloadActivity is the largest per-service "changed since last
	// tick" hint (workload.Shared.TickHint) observed on the last tick.
	WorkloadActivity float64
}

// buildAggIndex resolves the topology's post-order device index against
// the constructed server instances, and appends the datacenter root as the
// last slot when it is not itself a device: its children are the
// top-level devices and its direct leaves the servers and switches outside
// any device. Called once at New, after all servers (including cappable
// switches) exist.
func (s *Sim) buildAggIndex() {
	s.tickList = make([]*server.Server, len(s.serverOrder))
	tickIdx := make(map[string]int, len(s.serverOrder))
	for i, id := range s.serverOrder {
		s.tickList[i] = s.Servers[id]
		tickIdx[id] = i
	}

	// Per-server dirty-tracking state: the draw last committed into the
	// server's home slot, and that slot's snapshot index.
	s.lastAgg = make([]power.Watts, len(s.tickList))
	s.homeDev = make([]int, len(s.tickList))

	nodes := s.Topo.DevicesPostOrder()
	if root := s.Topo.Root; !root.IsDevice() {
		// The clipped capacity keeps append off the topology's array.
		nodes = append(nodes[:len(nodes):len(nodes)], root)
	}
	s.agg = make([]aggDev, 0, len(nodes))
	s.aggIdx = make(map[topology.NodeID]int, len(nodes))
	for i, n := range nodes {
		d := aggDev{id: n.ID, isRack: n.Kind == topology.KindRack, parent: -1}
		for _, l := range n.DirectLeaves() {
			if li, ok := tickIdx[string(l.ID)]; ok {
				d.leafIdx = append(d.leafIdx, li)
				s.homeDev[li] = i
			} else {
				d.constSw++
			}
		}
		// Children precede their parent in post-order, so their slots
		// exist and can be pointed back at this one.
		for _, c := range n.ChildDevices() {
			ci := s.aggIdx[c.ID]
			d.children = append(d.children, ci)
			s.agg[ci].parent = i
		}
		s.aggIdx[n.ID] = i
		s.agg = append(s.agg, d)
	}
	s.snap.dev = make([]power.Watts, len(s.agg))
	s.devDirty = make([]bool, len(s.agg))

	s.constSwitches = 0
	for _, sw := range s.Topo.OfKind(topology.KindSwitch) {
		if _, ok := s.Servers[string(sw.ID)]; !ok {
			s.constSwitches++
		}
	}

	s.workers = s.Cfg.TickWorkers
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.shardDirty = make([][]int, s.workers)

	s.breakerList = make([]*power.Breaker, len(s.deviceOrder))
	s.devSnapIdx = make([]int, len(s.deviceOrder))
	s.breakerWas = make([]bool, len(s.deviceOrder))
	s.breakerFired = make([]bool, len(s.deviceOrder))
	s.breakerDraw = make([]power.Watts, len(s.deviceOrder))
	for i, id := range s.deviceOrder {
		s.breakerList[i] = s.Breakers[id]
		s.devSnapIdx[i] = s.aggIdx[id]
	}
}

// parallelBreakerMin is the device count below which sharding the breaker
// heat integration is not worth the goroutine handoff.
const parallelBreakerMin = 64

// observeBreakers integrates every breaker's thermal state against the
// current snapshot, sharded across the worker pool. Each breaker's heat
// state is independent, and the trip results land in fixed per-device
// slots, so the subsequent serial trip handling (and therefore the whole
// run) is byte-identical at any worker count. Only the heat integration
// is sharded; trips' side effects (outages, telemetry) stay on the loop
// goroutine.
func (s *Sim) observeBreakers(now time.Duration) {
	n := len(s.breakerList)
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 || n < parallelBreakerMin {
		for i, br := range s.breakerList {
			s.breakerWas[i] = br.Tripped()
			draw := s.snap.dev[s.devSnapIdx[i]]
			s.breakerDraw[i] = draw
			s.breakerFired[i] = br.Observe(draw, now)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				br := s.breakerList[i]
				s.breakerWas[i] = br.Tripped()
				draw := s.snap.dev[s.devSnapIdx[i]]
				s.breakerDraw[i] = draw
				s.breakerFired[i] = br.Observe(draw, now)
			}
		}(start, end)
	}
	wg.Wait()
}

// recomputeDev re-aggregates one device at time now: DCUPS recharge (if a
// rack), directly attached server/switch draws, constant switch draw, and
// the already-committed child device totals, summed in exactly the fixed
// order the full pass uses — so a device recomputed incrementally is
// bit-identical to the same device in a full rebuild. It commits each
// attached leaf's draw into lastAgg, resetting the leaf's epsilon drift.
func (s *Sim) recomputeDev(i int, now time.Duration) power.Watts {
	d := &s.agg[i]
	var sum power.Watts
	if d.isRack {
		sum += s.rechargeAt(d.id, now)
	}
	for _, li := range d.leafIdx {
		p := s.tickList[li].Power()
		s.lastAgg[li] = p
		sum += p
	}
	if d.constSw > 0 {
		sum += power.Watts(d.constSw) * s.Cfg.SwitchDraw
	}
	for _, c := range d.children {
		sum += s.snap.dev[c]
	}
	return sum
}

// aggregate brings the snapshot to time now, dispatching to the full
// rebuild until the first pass has initialized the incremental state, and
// to the dirty-subtree incremental pass afterwards.
func (s *Sim) aggregate(now time.Duration) {
	if !s.aggInit {
		s.aggregateFull(now)
		return
	}
	s.aggregateIncremental(now)
}

// aggregateFull recomputes every device from scratch: one bottom-up pass
// over the post-order device index — O(total nodes) for the whole
// hierarchy. It is the mandatory first pass; tests also run it after
// ticks as the incremental path's cross-check. Summation order is fixed
// by the index, so results are identical at any worker count.
//
//dynamo:serial
func (s *Sim) aggregateFull(now time.Duration) {
	dirty := s.drainDirty()
	for i := range s.devDirty {
		s.devDirty[i] = false
	}
	for i := range s.agg {
		s.snap.dev[i] = s.recomputeDev(i, now)
	}
	s.commit(now, dirty, len(s.agg))
	s.statFullRebuilds++
}

// aggregateIncremental re-aggregates only what changed: the home devices
// of servers whose draw moved beyond the epsilon (recorded per shard by
// the physics pass), every rack with an active DCUPS recharge (their draw
// is time-dependent), and the ancestor chains of any device whose total
// actually changed. Devices are processed in ascending post-order index,
// so a dirty child always commits before its parent reads it; untouched
// devices keep their snapshot entries, which at epsilon=0 are bit-for-bit
// what a full rebuild would recompute (their inputs are unchanged and the
// per-device summation order is fixed).
//
//dynamo:serial
func (s *Sim) aggregateIncremental(now time.Duration) {
	dirty := s.drainDirty()
	reagg := 0
	for i := range s.agg {
		if !s.devDirty[i] {
			continue
		}
		s.devDirty[i] = false
		sum := s.recomputeDev(i, now)
		reagg++
		if sum != s.snap.dev[i] {
			s.snap.dev[i] = sum
			if p := s.agg[i].parent; p >= 0 {
				s.devDirty[p] = true
			}
		}
	}
	s.commit(now, dirty, reagg)
	s.statIncPasses++
}

// drainDirty folds the per-shard dirty-server lists into the per-device
// dirty marks and marks every recharging rack (time-dependent draw).
// Marking is idempotent and commutative, so shard order never matters.
// Returns the dirty-server count.
//
//dynamo:serial
func (s *Sim) drainDirty() int {
	dirty := 0
	for w := range s.shardDirty {
		for _, li := range s.shardDirty[w] {
			s.devDirty[s.homeDev[li]] = true
		}
		dirty += len(s.shardDirty[w])
		s.shardDirty[w] = s.shardDirty[w][:0]
	}
	for rackID := range s.recharges {
		s.devDirty[s.aggIdx[rackID]] = true
	}
	return dirty
}

// commit finalizes a global aggregation pass at time now.
//
//dynamo:serial
func (s *Sim) commit(now time.Duration, dirtyServers, reagg int) {
	s.snap.at = now
	s.snap.valid = true
	s.snap.version++
	s.aggInit = true
	s.statDirtyServers = dirtyServers
	s.statReaggDevices = reagg
}

// refresh re-aggregates if the snapshot does not describe the current
// loop time (e.g. a scenario callback querying between ticks, or any
// query before the first tick). Within one timestamp the snapshot is
// computed at most once unless explicitly invalidated.
func (s *Sim) refresh() {
	if now := s.Loop.Now(); !s.snap.valid || s.snap.at != now {
		s.aggregate(now)
	}
}

// invalidateSnapshot forces the next read to re-aggregate; called by
// mutations that change device draw at the current instant (DCUPS
// recharge start on restore). The dirty marks persist across the
// invalidation, so the forced pass is still incremental: it recomputes
// the recharging racks' chains, not the fleet.
func (s *Sim) invalidateSnapshot() {
	s.snap.valid = false
	s.snap.totalValid = false
}

// tickServers advances every server's physics to now, sharded across the
// worker pool, and records each server whose draw moved beyond the
// aggregation epsilon into the ticking shard's dirty list. Each server is
// ticked exactly once by one goroutine; servers are mutually independent
// (per-server generator RNG, shared workload state pre-advanced and
// read-only during the step), and the dirty verdict is a pure function of
// one server's draw, so the result is byte-identical to the serial loop
// at any worker count.
func (s *Sim) tickServers(now time.Duration) {
	n := len(s.tickList)
	w := s.workers
	if w > n {
		w = n
	}
	eps := s.Cfg.AggregationEpsilon
	if w <= 1 || n < parallelTickMin {
		shard := s.shardDirty[0]
		for i, sv := range s.tickList {
			sv.Tick(now)
			if d := sv.Power() - s.lastAgg[i]; d > eps || d < -eps {
				shard = append(shard, i)
			}
		}
		s.shardDirty[0] = shard
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	shardNo := 0
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi, sh int) {
			defer wg.Done()
			shard := s.shardDirty[sh]
			for i := lo; i < hi; i++ {
				sv := s.tickList[i]
				sv.Tick(now)
				if d := sv.Power() - s.lastAgg[i]; d > eps || d < -eps {
					shard = append(shard, i)
				}
			}
			s.shardDirty[sh] = shard
		}(start, end, shardNo)
		shardNo++
	}
	wg.Wait()
}

// snapPower returns a device's or the root's draw from the current
// snapshot; any other ID reads 0. Callers must have refreshed or just
// aggregated.
func (s *Sim) snapPower(id topology.NodeID) power.Watts {
	if i, ok := s.aggIdx[id]; ok {
		return s.snap.dev[i]
	}
	return 0
}

// AggregationStats reports the incremental pipeline's work counters as of
// the last committed pass.
func (s *Sim) AggregationStats() AggregationStats {
	return AggregationStats{
		DirtyServers:        s.statDirtyServers,
		ReaggregatedDevices: s.statReaggDevices,
		Servers:             len(s.tickList),
		Devices:             len(s.agg),
		IncrementalPasses:   s.statIncPasses,
		FullRebuilds:        s.statFullRebuilds,
		WorkloadActivity:    s.statWorkloadHint,
	}
}
