package core

import (
	"sort"
	"time"

	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// UpperConfig configures an upper-level power controller (paper §III-D).
type UpperConfig struct {
	// DeviceID names the protected power device (an SB or MSB).
	DeviceID string
	// Limit is the device's physical breaker limit.
	Limit power.Watts
	// Quota is this device's own planned peak, used by ITS parent.
	Quota power.Watts
	// Bands is the three-band configuration.
	Bands BandConfig
	// PollInterval is the pull cycle over child controllers. The paper
	// uses 9 s — three leaf cycles — so child actions settle between
	// parent readings ("the pulling cycle for the upper-level controller
	// is longer than the settling time of the downstream leaf
	// controller").
	PollInterval time.Duration
	// PullTimeout bounds each child pull.
	PullTimeout time.Duration
	// MaxStaleFrac is the fraction of children allowed to be stale
	// (unreachable this cycle, reusing last-known values) before the
	// aggregation is declared invalid.
	MaxStaleFrac float64
	// OffenderBucket is the bucket width for distributing cuts among
	// offending children (the kW-scale analogue of the 20 W server
	// bucket).
	OffenderBucket power.Watts
	// DryRun computes decisions without sending contracts.
	DryRun bool
	// Alerts receives operator alerts.
	Alerts AlertFunc
	// Telemetry, when set, receives operational metrics and decision trace
	// events. nil (the default) disables telemetry entirely, as in
	// LeafConfig.
	Telemetry *telemetry.Sink
	// Scheduler, when set, runs the observe+decide phase on the shared
	// cohort worker pool (see LeafConfig.Scheduler).
	Scheduler *CohortScheduler
	// Checkpoint, when set, receives this controller's recoverable state
	// at the end of every act phase (see LeafConfig.Checkpoint).
	Checkpoint *statestore.Writer
	// Retry bounds per-call RPC retries toward child controllers (pulls
	// and contract sends). Zero disables retries.
	Retry RetryConfig
}

func (c *UpperConfig) fillDefaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = 9 * time.Second
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = c.PollInterval / 2
	}
	if c.MaxStaleFrac <= 0 {
		c.MaxStaleFrac = 0.5
	}
	if c.Bands == (BandConfig{}) {
		c.Bands = DefaultBandConfig()
	}
	if c.OffenderBucket <= 0 {
		c.OffenderBucket = power.KW(5)
	}
}

// ChildRef identifies one downstream controller.
type ChildRef struct {
	ID     string
	Client rpc.Client
	// Quota is the child's planned peak power; children above quota are
	// the "offenders" capped first.
	Quota power.Watts
}

type childState struct {
	peer
	quota power.Watts

	lastAgg    power.Watts
	everSeen   bool
	stale      bool
	staleFor   int
	contract   power.Watts
	contracted bool

	reading power.Watts // cycle-local
}

// Upper is an upper-level power controller coordinating child controllers
// through contractual power limits: the controller kernel with the
// punish-offender-first policy.
type Upper struct {
	kernel
	cfg UpperConfig

	children map[string]*childState
	order    []string

	// recentAgg holds the last few valid aggregates; cut sizing uses
	// their mean so a single noisy 9 s sample cannot inflate the needed
	// cut beyond the offenders' over-quota headroom.
	recentAgg []power.Watts
	// holdoffUntil is the cycle count before which no further capping is
	// issued, giving the previous action time to settle downstream.
	holdoffUntil uint64
}

// NewUpper creates an upper-level controller over child controllers.
func NewUpper(loop simclock.Loop, cfg UpperConfig, children []ChildRef) *Upper {
	cfg.fillDefaults()
	u := &Upper{
		cfg:      cfg,
		children: make(map[string]*childState, len(children)),
	}
	peers := make([]*peer, 0, len(children))
	for _, c := range children {
		st := &childState{peer: peer{id: c.ID, client: c.Client}, quota: c.Quota}
		u.children[c.ID] = st
		u.order = append(u.order, c.ID)
		peers = append(peers, &st.peer)
	}
	u.init(loop, u, kernelConfig{
		level: "upper", pullMethod: MethodCtrlReadPower, pullOp: "child pull",
		device: cfg.DeviceID, limit: cfg.Limit, quota: cfg.Quota,
		bands: &u.cfg.Bands, poll: &u.cfg.PollInterval, timeout: &u.cfg.PullTimeout,
		dryRun: cfg.DryRun, alerts: cfg.Alerts, sink: cfg.Telemetry,
		scheduler: cfg.Scheduler, ckpt: cfg.Checkpoint, retry: cfg.Retry,
	}, peers)
	return u
}

// ContractedChildren returns the IDs currently under a contractual limit.
func (u *Upper) ContractedChildren() []string {
	var out []string
	for _, id := range u.order {
		if u.children[id].contracted {
			out = append(out, id)
		}
	}
	return out
}

func (u *Upper) cappedCount() int { return len(u.ContractedChildren()) }

func (u *Upper) status(st *ControllerStatus) { st.Contracted = u.ContractedChildren() }

func (u *Upper) preparePulls() {}

// observe decodes the child responses and aggregates them; a child that
// did not answer validly is stale and contributes its last-known value.
// Stale children count as failures only when they invalidate the cycle.
func (u *Upper) observe(now time.Duration, p *cyclePlan) (power.Watts, bool) {
	stale := 0
	staleSeen := false
	var total power.Watts
	for _, id := range u.order {
		st := u.children[id]
		var r CtrlReadPowerResponse
		if st.rawValid && wire.Unmarshal(st.raw, &r) == nil && r.Valid {
			st.reading = power.Watts(r.AggWatts)
			st.lastAgg = st.reading
			st.everSeen = true
			if r.QuotaWatts > 0 {
				st.quota = power.Watts(r.QuotaWatts)
			}
			st.stale = false
			st.staleFor = 0
		} else {
			stale++
			st.stale = true
			st.staleFor++
			st.reading = st.lastAgg // reuse last-known
			if st.everSeen {
				staleSeen = true
			}
		}
		total += st.reading
	}
	staleFrac := 0.0
	if len(u.order) > 0 {
		staleFrac = float64(stale) / float64(len(u.order))
	}
	if staleFrac > u.cfg.MaxStaleFrac {
		p.failures = stale
		// During the first cycles after a (re)start, children may simply
		// not have completed their own first aggregation yet; that is
		// expected and not alert-worthy.
		if u.cycles > 2 || staleSeen {
			p.alert(AlertCritical,
				"aggregation invalid: %d/%d children unreachable", stale, len(u.order))
		}
		return 0, false
	}
	u.recentAgg = append(u.recentAgg, total)
	if len(u.recentAgg) > 3 {
		u.recentAgg = u.recentAgg[1:]
	}
	return total, true
}

func (u *Upper) decide(now time.Duration, p *cyclePlan) (Action, power.Watts) {
	bands := u.effectiveBands()
	return bands.Decide(p.agg, p.capCount > 0), bands.CapTarget
}

// planCap runs punish-offender-first (paper §III-D): the needed cut is
// distributed among children whose usage exceeds their power quota,
// high-bucket-first on the overage; only if the offenders cannot absorb it
// does the residual spread to the remaining children. Observe-phase: it
// computes the contracts (updating this controller's own child book-
// keeping) and defers the sends to the act phase.
//
// Actuation is conservative and single-step (paper §III-C2, ref [22]):
// the cut is sized from the smaller of the live and smoothed aggregates so
// a single noisy sample cannot inflate it, and the previous action settles
// (leaf cycle + RAPL + read-back) before the upper tightens again.
func (u *Upper) planCap(p *cyclePlan, target power.Watts) bool {
	if u.cycles < u.holdoffUntil {
		return false
	}
	var smoothed power.Watts
	for _, v := range u.recentAgg {
		smoothed += v
	}
	smoothed /= power.Watts(len(u.recentAgg))
	basis := p.agg
	if smoothed < basis {
		basis = smoothed
	}
	needed := basis - target
	if needed <= 0 {
		return true
	}
	cuts := u.planChildCuts(needed)
	u.holdoffUntil = u.cycles + 2
	// Sum in sorted child order: float addition is not associative, and
	// the achieved total feeds shortfall alerts and the journal.
	ids := make([]string, 0, len(cuts))
	for id := range cuts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var achieved power.Watts
	for _, id := range ids {
		achieved += cuts[id]
	}
	shortfall := needed - achieved
	if shortfall < planResidual {
		shortfall = 0
	}
	p.planned, p.achieved, p.shortfall = len(cuts), achieved, shortfall
	p.planComputed = true
	if u.dryRun {
		p.alert(AlertInfo, "dry-run: would contract %d children", len(cuts))
		return true
	}
	for _, id := range u.order {
		cut, hit := cuts[id]
		if !hit {
			continue
		}
		st := u.children[id]
		contract := st.reading - cut
		if st.contracted && st.contract < contract {
			contract = st.contract // never loosen mid-incident
		}
		if !st.contracted {
			p.capCount++
		}
		st.contract = contract
		st.contracted = true
		p.caps = append(p.caps, PlannedCap{ID: id, Cap: contract})
	}
	p.sendCaps = true
	return true
}

func (u *Upper) planUncap(p *cyclePlan) {
	if !u.dryRun {
		p.sendUncaps = true
	}
}

// act sends the planned contracts or their release.
func (u *Upper) act(now time.Duration, p *cyclePlan, send bool) {
	if !send || p.invalid {
		return
	}
	if p.sendCaps {
		u.sendContracts(now, p.caps)
	}
	if p.sendUncaps {
		u.sendClearContracts()
	}
}

// sendContracts issues the planned contracts, in fixed child order
// (act-phase).
func (u *Upper) sendContracts(now time.Duration, cuts []PlannedCap) {
	for _, c := range cuts {
		st := u.children[c.ID]
		if u.tel != nil {
			u.tel.contractIssued(u.cycles, now, st.id, c.Cap)
		}
		req := &SetContractRequest{LimitWatts: float64(c.Cap)}
		u.call(&st.peer, MethodCtrlSetContract, req, func(resp []byte, err error) {
			var ack AckResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				if u.tel != nil {
					u.tel.rpcFailure(u.cycles, u.loop.Now(), st.id, "set contract", derr)
				}
				u.alerts.emit(u.loop.Now(), AlertWarning, u.device,
					"contract to %s failed", st.id)
			}
		})
	}
}

// planChildCuts distributes the needed cut: offenders first (down to their
// quota), then, if still unmet, across all children high-bucket-first.
func (u *Upper) planChildCuts(needed power.Watts) map[string]power.Watts {
	cuts := map[string]power.Watts{}
	remaining := needed

	// Pass 1: offenders, high-bucket-first on overage, floored at quota.
	var offenders []ServerState
	for _, id := range u.order {
		st := u.children[id]
		if st.quota > 0 && st.reading > st.quota {
			offenders = append(offenders, ServerState{
				ID:      id,
				Service: "offender",
				Power:   st.reading - st.quota, // overage
			})
		}
	}
	if len(offenders) > 0 && remaining > 0 {
		got, achieved := planGroup(offenders, remaining, u.cfg.OffenderBucket, 0)
		for id, c := range got {
			cuts[id] += c
		}
		remaining -= achieved
	}

	// Pass 2 (beyond the paper's example, needed when offenders alone
	// cannot absorb the cut): all children, high-bucket-first on usage,
	// floored at half their quota.
	if remaining > power.Watts(1) {
		var all []ServerState
		for _, id := range u.order {
			st := u.children[id]
			eff := st.reading - cuts[id]
			all = append(all, ServerState{ID: id, Service: "child", Power: eff})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		var floor power.Watts
		for _, id := range u.order {
			if q := u.children[id].quota; q > 0 {
				floor += q / 2
			}
		}
		if len(u.order) > 0 {
			floor /= power.Watts(len(u.order))
		}
		got, _ := planGroup(all, remaining, u.cfg.OffenderBucket, floor)
		for id, c := range got {
			cuts[id] += c
		}
	}
	return cuts
}

// sendClearContracts releases all child contracts (act-phase).
func (u *Upper) sendClearContracts() {
	for _, id := range u.order {
		st := u.children[id]
		if !st.contracted {
			continue
		}
		u.call(&st.peer, MethodCtrlClearContract, rpc.Empty, func(resp []byte, err error) {
			var ack AckResponse
			if derr := rpc.Decode(resp, err, &ack); derr != nil || !ack.OK {
				if u.tel != nil {
					u.tel.rpcFailure(u.cycles, u.loop.Now(), st.id, "clear contract", derr)
				}
				u.alerts.emit(u.loop.Now(), AlertWarning, u.device,
					"clear contract to %s failed", st.id)
				return
			}
			st.contracted = false
			st.contract = 0
		})
	}
}
