package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"dynamo/internal/agent"
	"dynamo/internal/core"
	"dynamo/internal/rpc"
	"dynamo/internal/sim"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// tracer drives the loop one event at a time and attributes each event's
// host time to a layer, from outside the program:
//
//   - the power snapshot version moved: a physics tick (workload, server,
//     platform, aggregation, breakers);
//   - the observe-phase histogram of the cohort scheduler grew: a cohort
//     flush (observe+decide, then the serial act phase);
//   - an agent handler ran: an in-proc RPC delivery, split into the agent's
//     own time and the delivery's self time (lookup, wire codec, response
//     scheduling);
//   - anything else: controller collection (pull fan-out, response
//     deliveries, cycle completion) plus the few scenario and lease events.
//
// Time spent outside Step — the tracer's own bookkeeping and events run
// after the period sentinel — stays unattributed.
type tracer struct {
	s                *sim.Sim
	observe, act     *telemetry.Histogram
	observeN         uint64
	observeS, actS   float64
	reached          bool
	eventAgent       time.Duration
	eventCalls       int
	wall             time.Duration
	tick, deliver    time.Duration
	agentT, collect  time.Duration
	observeT, actT   time.Duration
	ticks            int
	dirtySum         float64
	reaggSum         float64
	pendingMax       int
	reads, writes    int
	reqBytes         int
	eventNs          *reservoir
	tickMs           *reservoir
	deliverNs        *reservoir
	readNs, writeNs  *reservoir
	observeMs, actMs *reservoir
}

// newTracer instruments s: every agent is re-registered on the in-proc
// network behind a timing wrapper, and the cohort scheduler's phase
// histograms are read from the telemetry sink s was built with.
func newTracer(s *sim.Sim, sink *telemetry.Sink, seed int64) *tracer {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x7ace))
	t := &tracer{
		s:         s,
		observe:   sink.Histogram("dynamo_control_phase_seconds", core.PhaseBuckets, "phase", "observe"),
		act:       sink.Histogram("dynamo_control_phase_seconds", core.PhaseBuckets, "phase", "act"),
		eventNs:   newReservoir(rng),
		tickMs:    newReservoir(rng),
		deliverNs: newReservoir(rng),
		readNs:    newReservoir(rng),
		writeNs:   newReservoir(rng),
		observeMs: newReservoir(rng),
		actMs:     newReservoir(rng),
	}
	for id, ag := range s.Agents {
		s.Net.Register(core.AgentAddr(id), t.wrap(ag.Handler()))
	}
	return t
}

func (t *tracer) wrap(h rpc.Handler) rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		start := time.Now()
		resp, err := h(method, body)
		d := time.Since(start)
		t.eventAgent += d
		t.eventCalls++
		t.reqBytes += len(body)
		switch method {
		case agent.MethodReadPower, agent.MethodPing:
			t.reads++
			t.readNs.add(float64(d))
		default:
			t.writes++
			t.writeNs.add(float64(d))
		}
		return resp, err
	}
}

// runUntil advances the loop to target one event at a time. A sentinel
// event at target ends the stepping; RunUntil then runs any event due at
// exactly target that was queued behind it, so the loop ends in the same
// state as an untraced RunUntil(target).
func (t *tracer) runUntil(target time.Duration) {
	start := time.Now()
	s, loop := t.s, t.s.Loop
	t.reached = false
	s.At(target, func() { t.reached = true })
	for !t.reached {
		version := s.SnapshotVersion()
		t.eventAgent, t.eventCalls = 0, 0
		e0 := time.Now()
		if !loop.Step() {
			break
		}
		d := time.Since(e0)
		if t.reached {
			break
		}
		t.eventNs.add(float64(d))
		switch {
		case s.SnapshotVersion() != version:
			t.tick += d
			t.ticks++
			t.tickMs.add(d.Seconds() * 1e3)
			st := s.AggregationStats()
			t.dirtySum += float64(st.DirtyServers) / float64(st.Servers)
			t.reaggSum += float64(st.ReaggregatedDevices) / float64(st.Devices)
		case t.observe.Count() != t.observeN:
			t.observeN = t.observe.Count()
			obs, act := t.observe.Sum()-t.observeS, t.act.Sum()-t.actS
			t.observeS, t.actS = t.observe.Sum(), t.act.Sum()
			t.observeMs.add(obs * 1e3)
			t.actMs.add(act * 1e3)
			// The act share also carries the flush's own batching work.
			t.observeT += time.Duration(obs * 1e9)
			t.actT += d - time.Duration(obs*1e9)
		case t.eventCalls > 0:
			t.agentT += t.eventAgent
			t.deliver += d - t.eventAgent
			t.deliverNs.add(float64(d - t.eventAgent))
		default:
			t.collect += d
		}
		if p := loop.Pending(); p > t.pendingMax {
			t.pendingMax = p
		}
	}
	loop.RunUntil(target)
	t.wall += time.Since(start)
}

// attributed is the traced wall time assigned to a layer.
func (t *tracer) attributed() time.Duration {
	return t.tick + t.deliver + t.agentT + t.observeT + t.actT + t.collect
}

// reservoir keeps a uniform sample of at most reservoirSize values, so
// medians over millions of events cost bounded memory.
type reservoir struct {
	rng  *rand.Rand
	n    int
	vals []float64
}

const reservoirSize = 1 << 16

func newReservoir(rng *rand.Rand) *reservoir { return &reservoir{rng: rng} }

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.vals) < reservoirSize {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.IntN(r.n); j < reservoirSize {
		r.vals[j] = v
	}
}

func (r *reservoir) median() float64 { return median(r.vals) }

// median returns the middle value (mean of the two middle values for an
// even count) of xs, or 0 when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
