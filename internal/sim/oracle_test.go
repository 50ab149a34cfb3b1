package sim

import (
	"math"
	"testing"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/simclock"
	"dynamo/internal/topology"
)

// This file holds the reference implementations the aggregation snapshot
// is checked against. Production code reads device power only through the
// snapshot.

// devicePowerWalk is the pre-snapshot implementation: a full subtree walk
// summing every server, switch, and rack recharge below the node. Unlike
// the snapshot path it never mutates recharge state.
func (s *Sim) devicePowerWalk(devID topology.NodeID) power.Watts {
	node := s.Topo.Lookup(devID)
	if node == nil {
		return 0
	}
	var sum power.Watts
	now := s.Loop.Now()
	node.Walk(func(n *topology.Node) {
		switch n.Kind {
		case topology.KindServer:
			sum += s.Servers[string(n.ID)].Power()
		case topology.KindSwitch:
			if sv, ok := s.Servers[string(n.ID)]; ok {
				sum += sv.Power() // cappable switch: measured draw
			} else {
				sum += s.Cfg.SwitchDraw
			}
		case topology.KindRack:
			sum += s.rechargePeek(n.ID, now)
		}
	})
	return sum
}

// rechargePeek is rechargeAt without the expiry garbage collection, so
// the walk stays free of side effects.
func (s *Sim) rechargePeek(rackID topology.NodeID, now time.Duration) power.Watts {
	r, ok := s.recharges[rackID]
	if !ok {
		return 0
	}
	elapsed := now - r.start
	if elapsed >= 5*r.tau {
		return 0
	}
	return power.Watts(float64(r.initial) * math.Exp(-elapsed.Seconds()/r.tau.Seconds()))
}

// afterEachTick runs fn right after every physics tick, at the same
// instant: a ticker with the tick period that starts after the physics
// ticker fires behind it, because same-instant events run in schedule
// order. Call it after s.Start, and only on runs that keep the tick
// period fixed.
func afterEachTick(s *Sim, fn func()) {
	simclock.NewTicker(s.Loop, s.Cfg.TickInterval, fn).Start()
}

// checkFullRebuildEachTick cross-checks every incremental pass of s: right
// after each physics tick it rebuilds the snapshot with the production
// aggregateFull and fails t unless every slot is bit-identical to what
// the incremental pass left. At epsilon 0 the rebuild changes no state
// but the pass counters. It returns the count of ticks checked so far.
func checkFullRebuildEachTick(t *testing.T, s *Sim) *int {
	t.Helper()
	checked := new(int)
	inc := make([]power.Watts, len(s.snap.dev))
	afterEachTick(s, func() {
		s.refresh() // a same-instant event may have invalidated it
		copy(inc, s.snap.dev)
		now := s.Loop.Now()
		s.aggregateFull(now)
		for i, w := range inc {
			if math.Float64bits(float64(w)) != math.Float64bits(float64(s.snap.dev[i])) {
				t.Fatalf("at %v: %s incremental %.12f != full rebuild %.12f",
					now, s.agg[i].id, w, s.snap.dev[i])
			}
		}
		*checked++
	})
	return checked
}

// TestSnapshotMatchesWalkEachTick checks the snapshot against the subtree
// walk at every physics tick of a trip-and-restore scenario: every
// device's entry and the root's must match the walk within 1e-6 relative.
// Breakers, validators and recorders read those entries, so a tick reads
// the same draws the walk would give it.
func TestSnapshotMatchesWalkEachTick(t *testing.T) {
	s, err := New(Config{Spec: detSpec(), Seed: 11, TickWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rpp := s.Topo.OfKind(topology.KindRPP)[0]
	s.At(time.Minute, func() { s.SetExtraLoadUnder(rpp.ID, 0.9) })
	s.At(5*time.Minute, func() { s.RestoreDevice(rpp.ID) })
	nodes := append(s.Topo.Devices(), s.Topo.Root)
	ticks := 0
	s.Start()
	afterEachTick(s, func() {
		ticks++
		for _, n := range nodes {
			snap := float64(s.DevicePower(n.ID))
			walk := float64(s.devicePowerWalk(n.ID))
			if diff := math.Abs(snap - walk); diff > 1e-6*math.Abs(walk) {
				t.Fatalf("at %v: %s snapshot %.9f != walk %.9f", s.Loop.Now(), n.ID, snap, walk)
			}
		}
	})
	s.Run(8 * time.Minute)
	if len(s.Trips) == 0 {
		t.Fatal("scenario produced no trips; the check is vacuous")
	}
	if want := int(8 * time.Minute / s.Cfg.TickInterval); ticks != want {
		t.Fatalf("checked %d ticks, want %d", ticks, want)
	}
}
