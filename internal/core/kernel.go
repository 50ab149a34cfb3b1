package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dynamo/internal/metrics"
	"dynamo/internal/power"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/telemetry"
	"dynamo/internal/wire"
)

// Leaf and Upper run one cycle (paper §III-D: an upper-level controller
// repeats the leaf's pull → aggregate → three-band loop over child
// controllers). The kernel is that cycle, written once: the ticker and
// peer pulls, cycle and stop generations, retries, the plan, the serial
// act phase with its journal, checkpoint and telemetry, and the
// controller protocol. Each level plugs in a levelPolicy: how it decodes
// and aggregates its pulls, decides, plans a cut and actuates it —
// three-band/PID with per-server priority plans for the leaf,
// punish-offender-first contracts for the upper.

// levelPolicy is the per-level half of a controller. observe, decide,
// planCap and planUncap run in the observe+decide phase, possibly on a
// cohort worker, and may touch only the controller's own state; act runs
// in the serial act phase on the loop goroutine.
type levelPolicy interface {
	// preparePulls resets per-peer cycle state and marks the peers that
	// are skipped or probed this cycle.
	preparePulls()
	// observe decodes the raw pulls and aggregates them. valid=false
	// declares the aggregation invalid, with p.failures counting the
	// failed peers.
	observe(now time.Duration, p *cyclePlan) (agg power.Watts, valid bool)
	// decide picks the action and the power target of a cap.
	decide(now time.Duration, p *cyclePlan) (Action, power.Watts)
	// planCap plans the cut down to target into p; false means the level
	// holds off this cycle.
	planCap(p *cyclePlan, target power.Watts) bool
	planUncap(p *cyclePlan)
	// act applies the level's act-phase effects. send is false once the
	// controller is stopped: then nothing may leave it.
	act(now time.Duration, p *cyclePlan, send bool)
	// cappedCount counts capped servers (leaf) or contracted children
	// (upper).
	cappedCount() int
	// status adds the level's own fields to a snapshot.
	status(st *ControllerStatus)
}

// peer is one downstream endpoint, an agent or a child controller, with
// the undecoded response of the open cycle's pull. The pull completion
// only stores bytes; decoding happens in the observe phase.
type peer struct {
	id     string
	client rpc.Client
	// skip leaves the peer out of this cycle's pulls; probing sends it a
	// single unretried half-open probe instead.
	skip, probing bool
	rawValid      bool
	raw           []byte
}

// pendingAlert is an alert composed during observe+decide (which may run
// off-loop) and emitted during the serial act phase.
type pendingAlert struct {
	level AlertLevel
	msg   string
}

// cyclePlan is the complete outcome of one observe+decide phase. The act
// phase applies it verbatim: journal write, alert emission, telemetry,
// and RPC actuation. Everything the act phase needs is captured here so
// the two phases share no implicit state.
type cyclePlan struct {
	rec          DecisionRecord
	invalid      bool
	failures     int
	agg          power.Watts
	effLimit     power.Watts
	action       Action
	prevAction   Action
	capCount     int // capped servers or contracted children after planning
	planComputed bool
	planned      int
	achieved     power.Watts
	shortfall    power.Watts
	// caps is the level's payload: per-server caps (leaf) or per-child
	// contracts in fixed child order (upper).
	caps       []PlannedCap
	sendCaps   bool
	sendUncaps bool
	alerts     []pendingAlert
}

func (p *cyclePlan) alert(level AlertLevel, format string, args ...interface{}) {
	p.alerts = append(p.alerts, pendingAlert{level: level, msg: fmt.Sprintf(format, args...)})
}

// kernelConfig is what the kernel takes from LeafConfig or UpperConfig.
// bands, poll and pullTimeout point into the level's config, so a
// reconfiguration stays visible there.
type kernelConfig struct {
	level      string // "leaf" or "upper"
	pullMethod string
	pullOp     string // names a failed pull in telemetry
	device     string
	limit      power.Watts
	quota      power.Watts
	bands      *BandConfig
	poll       *time.Duration
	timeout    *time.Duration
	dryRun     bool
	alerts     AlertFunc
	sink       *telemetry.Sink
	scheduler  *CohortScheduler
	ckpt       *statestore.Writer
	retry      RetryConfig
}

// kernel is the controller cycle shared by Leaf and Upper. It is confined
// to its event loop: all methods, the RPC handler included, run on loop
// callbacks, except runObserveDecide under a cohort scheduler.
type kernel struct {
	kernelConfig
	loop  simclock.Loop
	pol   levelPolicy
	peers []*peer // fixed pull order

	ticker   *simclock.Ticker
	cycleSeq uint64
	inflight int
	cycles   uint64

	// gen counts controller lifetimes: Stop bumps it. The act phase of a
	// cycle opened under an older generation sends nothing, and retry
	// attempts falling due after it are dropped. cycleGen is the
	// generation the open cycle started under.
	gen      uint64
	cycleGen uint64

	// cycleOpen is true from pollCycle until the act phase completes;
	// reconfiguration requested in that window is deferred to the cycle
	// boundary so it cannot race an observe phase on a cohort worker.
	cycleOpen         bool
	pendingBands      *BandConfig
	pendingPoll       time.Duration
	deferredReconfigs uint64

	// retryPol is the precomputed retry policy (zero when retries are
	// off); retries counts re-attempts across all downstream calls.
	retryPol rpc.RetryPolicy
	retries  uint64

	contract   power.Watts // imposed by the parent; 0 = none
	lastAgg    power.Watts
	lastValid  bool
	lastAction Action
	pid        *pidState // PID control (leaf option); nil for three-band

	history     *metrics.Series
	journal     *Journal
	capEvents   uint64
	uncapEvents uint64

	schedOrder int
	plan       cyclePlan

	// telemetry (nil when disabled)
	tel          *ctrlInstr
	cycleStartAt time.Duration
}

func (k *kernel) init(loop simclock.Loop, pol levelPolicy, c kernelConfig, peers []*peer) {
	k.kernelConfig = c
	k.loop, k.pol, k.peers = loop, pol, peers
	k.history = metrics.NewSeries(1024)
	k.journal = NewJournal(512)
	k.tel = newCtrlInstr(c.sink, c.device, c.level)
	k.alerts = k.tel.wrapAlerts(c.alerts)
	if c.scheduler != nil {
		k.schedOrder = c.scheduler.register()
	}
	if c.retry.Enabled() {
		k.retryPol = c.retry.policy(*c.poll)
	}
	k.ticker = simclock.NewTicker(loop, *c.poll, k.pollCycle)
}

// errStopped fails a retry attempt that falls due after Stop.
var errStopped = errors.New("core: controller stopped")

// stopGate forwards calls to a peer's client until the controller that
// issued them is stopped.
type stopGate struct {
	k   *kernel
	c   rpc.Client
	gen uint64
}

func (g stopGate) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	if g.k.gen != g.gen {
		done(nil, errStopped)
		return
	}
	g.c.Call(method, req, timeout, done)
}

func (g stopGate) Close() error { return g.c.Close() }

// call issues one downstream RPC under the configured retry policy; with
// retries disabled it is a plain single-attempt Call. Always invoked on
// the loop goroutine (poll broadcast or act phase). A retry attempt that
// falls due after Stop is not sent.
func (k *kernel) call(p *peer, method string, req wire.Message, done func([]byte, error)) {
	if !k.retryPol.Enabled() {
		p.client.Call(method, req, *k.timeout, done)
		return
	}
	pol := k.retryPol
	pol.OnRetry = func(attempt int, err error) {
		k.retries++
		if k.tel != nil {
			k.tel.rpcRetry(k.cycles, k.loop.Now(), p.id, method, attempt, err)
		}
	}
	rpc.CallRetry(k.loop, stopGate{k: k, c: p.client, gen: k.gen}, method, p.id, req, *k.timeout, pol, done)
}

// pollCycle broadcasts power pulls to every peer (paper: "periodically
// broadcasts power pull requests over Thrift to all servers").
func (k *kernel) pollCycle() {
	if k.inflight > 0 || k.cycleOpen {
		// Previous cycle still collecting or deciding (should not happen:
		// timeout < interval), skip to avoid overlapping aggregations.
		return
	}
	k.cycleSeq++
	seq := k.cycleSeq
	k.cycleOpen = true
	k.cycleGen = k.gen
	if k.tel != nil {
		k.cycleStartAt = k.loop.Now()
		k.tel.cycleStart(k.cycles+1, k.cycleStartAt)
	}
	for _, p := range k.peers {
		p.rawValid, p.raw, p.skip, p.probing = false, nil, false, false
	}
	k.pol.preparePulls()
	k.inflight = 0
	for _, p := range k.peers {
		if !p.skip {
			k.inflight++
		}
	}
	if k.inflight == 0 {
		k.complete()
		return
	}
	for _, p := range k.peers {
		switch {
		case p.skip:
		case p.probing:
			// Half-open probe: one unretried attempt — a still-dead peer
			// must not consume the retry budget.
			p.client.Call(k.pullMethod, rpc.Empty, *k.timeout,
				func(resp []byte, err error) { k.onPull(seq, p, resp, err) })
		default:
			k.call(p, k.pullMethod, rpc.Empty,
				func(resp []byte, err error) { k.onPull(seq, p, resp, err) })
		}
	}
}

// onPull records one pull completion: it only stores the raw response.
func (k *kernel) onPull(seq uint64, p *peer, resp []byte, err error) {
	if seq != k.cycleSeq {
		return // stale response from a superseded cycle
	}
	if err != nil && k.tel != nil {
		k.tel.rpcFailure(k.cycles+1, k.loop.Now(), p.id, k.pullOp, err)
	}
	if err == nil {
		p.rawValid = true
		p.raw = resp
	}
	k.inflight--
	if k.inflight == 0 {
		k.complete()
	}
}

// complete hands the collected cycle to its phases: via the cohort
// scheduler when one is attached, else inline at the completion instant.
func (k *kernel) complete() {
	if k.scheduler != nil {
		k.scheduler.submit(k, k.schedOrder)
		return
	}
	now := k.loop.Now()
	k.runObserveDecide(now)
	k.runAct(now)
}

// runObserveDecide is the observe+decide phase: the level decodes and
// aggregates its pulls, then decides and plans into k.plan. It reads and
// writes only this controller's own state, so the cohort scheduler may
// run it on a worker goroutine concurrently with other controllers'
// observe phases. No journal writes, alert emission, telemetry, or RPC
// happens here — those are act-phase effects.
func (k *kernel) runObserveDecide(now time.Duration) {
	if k.tel != nil {
		//lint:allow wallclock — wall-clock phase-latency for operator histograms; guarded by a tel nil-check and never feeds control decisions
		defer k.tel.observeDone(time.Now())
	}
	k.cycles++
	p := &k.plan
	*p = cyclePlan{prevAction: k.lastAction, caps: p.caps[:0], alerts: p.alerts[:0]}

	agg, valid := k.pol.observe(now, p)
	if !valid {
		// The aggregation cannot be trusted: take no action and leave the
		// alert for human intervention (paper §III-C1, §III-E).
		k.lastValid = false
		p.invalid = true
		p.rec = DecisionRecord{Cycle: k.cycles, Time: now, Valid: false, Failures: p.failures}
		return
	}
	k.lastAgg, k.lastValid = agg, true
	p.agg = agg
	p.capCount = k.pol.cappedCount()
	p.effLimit = k.EffectiveLimit()

	action, target := k.pol.decide(now, p)
	p.action = action
	k.lastAction = action
	p.rec = DecisionRecord{
		Cycle: k.cycles, Time: now, Agg: agg, Valid: true,
		Failures: p.failures, EffLimit: p.effLimit,
		Action: action, DryRun: k.dryRun,
	}
	switch action {
	case ActionCap:
		if k.pol.planCap(p, target) {
			p.rec.Target = target
			p.rec.ServersPlanned, p.rec.Achieved, p.rec.Shortfall = p.planned, p.achieved, p.shortfall
		}
	case ActionUncap:
		k.pol.planUncap(p)
	}
}

// runAct is the act phase: apply the plan computed by runObserveDecide.
// It always runs on the loop goroutine — journal and history writes,
// alert emission, telemetry, and RPC sends all happen here, serially and
// in fixed device order across the cohort.
//
//dynamo:serial
func (k *kernel) runAct(now time.Duration) {
	p := &k.plan
	defer func() {
		k.cycleOpen = false
		k.applyPendingReconfigs()
	}()
	// A controller stopped mid-cycle (crash, fencing) still finishes the
	// cycle's bookkeeping, but must not actuate: nothing leaves a dead
	// controller.
	send := k.cycleGen == k.gen
	if p.invalid {
		if k.tel != nil {
			k.tel.invalidCycle(k.cycles, k.cycleStartAt, now, p.failures, len(k.peers))
		}
		k.emitAlerts(now, p)
		k.pol.act(now, p, send)
		k.journal.Add(p.rec)
		k.checkpoint(now, p.rec)
		return
	}

	k.history.Add(now, float64(p.agg))
	if k.tel != nil && p.action != p.prevAction {
		k.tel.transition(k.cycles, now, p.prevAction, p.action)
	}
	if k.tel != nil && p.planComputed {
		k.tel.capPlan(k.cycles, now, p.planned, p.achieved, p.shortfall, k.dryRun)
	}
	k.emitAlerts(now, p)
	if send && p.sendCaps {
		k.capEvents++
	}
	if send && p.sendUncaps {
		k.uncapEvents++
	}
	k.pol.act(now, p, send)
	k.journal.Add(p.rec)
	k.checkpoint(now, p.rec)
	if k.tel != nil {
		k.tel.cycleEnd(k.cycles, k.cycleStartAt, now, p.agg, p.effLimit, p.capCount, p.action)
	}
}

// checkpoint writes this cycle's state into the replicated store
// (act-phase effect, always after the journal write of the same cycle —
// see the ordering rule in checkpoint.go). A fenced append means a backup
// has adopted this device: this instance is a zombie and stops itself.
func (k *kernel) checkpoint(now time.Duration, rec DecisionRecord) {
	if k.ckpt == nil {
		return
	}
	fenced, err := writeCheckpoint(k.ckpt, k.journal, rec, k.cycles, k.lastAction, k.contract, k.pid)
	if err == nil {
		return
	}
	if fenced {
		k.alerts.emit(now, AlertCritical, k.device,
			"checkpoint fenced (stream epoch %d superseded by adoption); stopping zombie controller",
			k.ckpt.Epoch())
		k.Stop()
		return
	}
	k.alerts.emit(now, AlertWarning, k.device, "checkpoint append failed: %v", err)
}

func (k *kernel) emitAlerts(now time.Duration, p *cyclePlan) {
	for _, a := range p.alerts {
		k.alerts.emit(now, a.level, k.device, "%s", a.msg)
	}
}

// applyPendingReconfigs applies deferred reconfiguration at the cycle
// boundary (end of the act phase, on the loop goroutine).
func (k *kernel) applyPendingReconfigs() {
	if k.pendingBands != nil {
		*k.bands = *k.pendingBands
		k.pendingBands = nil
	}
	if k.pendingPoll > 0 {
		k.applyPollInterval(k.pendingPoll)
		k.pendingPoll = 0
	}
}

// applyPollInterval keeps the pull timeout at the leaf's default two
// thirds of the period: only Leaf exposes SetPollInterval.
func (k *kernel) applyPollInterval(d time.Duration) {
	*k.poll = d
	*k.timeout = d * 2 / 3
	k.ticker.SetPeriod(d)
}

// DeviceID returns the protected device's identifier.
func (k *kernel) DeviceID() string { return k.device }

// Start begins the pull cycle.
func (k *kernel) Start() { k.ticker.Start() }

// Stop halts the pull cycle (a crashed or fenced controller). Bumping the
// generation stops what the controller still had under way: the act
// phase of an already collected cycle journals and checkpoints but sends
// nothing, and a queued retry is not sent.
func (k *kernel) Stop() {
	k.gen++
	k.ticker.Stop()
}

// Running reports whether the controller is polling.
func (k *kernel) Running() bool { return k.ticker.Active() }

// Cycles returns the number of completed aggregation cycles.
func (k *kernel) Cycles() uint64 { return k.cycles }

// Retries returns how many downstream RPC re-attempts this controller
// has issued.
func (k *kernel) Retries() uint64 { return k.retries }

// LastAggregate returns the most recent aggregated power and validity.
func (k *kernel) LastAggregate() (power.Watts, bool) { return k.lastAgg, k.lastValid }

// History returns the aggregate power time series (one point per cycle).
func (k *kernel) History() *metrics.Series { return k.history }

// CapEvents returns how many capping actions this controller has taken.
func (k *kernel) CapEvents() uint64 { return k.capEvents }

// UncapEvents returns how many uncap actions this controller has taken.
func (k *kernel) UncapEvents() uint64 { return k.uncapEvents }

// Journal returns the controller's decision log (oldest-first ring).
func (k *kernel) Journal() *Journal { return k.journal }

// AdoptJournal seeds this controller with a predecessor's decision
// records and cycle counter (failover handoff). Call before Start.
func (k *kernel) AdoptJournal(recs []DecisionRecord, cycles uint64) {
	k.journal.Absorb(recs)
	if cycles > k.cycles {
		k.cycles = cycles
	}
}

// AdoptInternals restores the last action, the contractual limit and any
// PID internals from a predecessor's final checkpoint. Call with
// AdoptJournal, before Start.
func (k *kernel) AdoptInternals(ck ControllerCheckpoint) {
	k.lastAction = ck.LastAction
	k.contract = ck.Contract
	if k.pid != nil {
		k.pid.integral = ck.PIDIntegral
		k.pid.last = ck.PIDLast
		k.pid.engaged = ck.PIDEngaged
		k.pid.started = ck.PIDStarted
	}
}

// CheckpointWriter returns the attached state-store writer (nil when
// checkpointing is disabled). The failover path uses it to continue the
// adopted stream at its granted epoch.
func (k *kernel) CheckpointWriter() *statestore.Writer { return k.ckpt }

// EffectiveLimit is min(physical, contractual) (paper §III-D).
func (k *kernel) EffectiveLimit() power.Watts {
	if k.contract > 0 && k.contract < k.limit {
		return k.contract
	}
	return k.limit
}

// effectiveBands returns the decision bands. Against the physical breaker
// limit the configured fractions apply. Against a contractual limit the
// contract itself is the threshold and the target sits just below it: the
// parent that issued the contract already built in its own safety margin,
// and re-applying the 5 % target at every level would compound
// (0.95^depth), dropping settled power below the top-level uncap threshold
// and causing hierarchy-wide cap/uncap oscillation.
func (k *kernel) effectiveBands() Bands {
	if k.contract > 0 && k.contract < k.limit {
		return contractBands(k.contract, *k.bands)
	}
	return k.bands.BandsFor(k.limit)
}

// contractBands builds enforcement bands for a contractual limit.
func contractBands(contract power.Watts, cfg BandConfig) Bands {
	return Bands{
		CapThreshold:   contract,
		CapTarget:      power.Watts(float64(contract) * 0.99),
		UncapThreshold: power.Watts(float64(contract) * cfg.UncapThresholdFrac),
	}
}

// Handler serves the controller-to-controller protocol for this device,
// so a parent pulls an upper exactly as an upper pulls leaves.
func (k *kernel) Handler() rpc.Handler {
	return func(method string, body []byte) (wire.Message, error) {
		switch method {
		case MethodCtrlReadPower:
			return &CtrlReadPowerResponse{
				AggWatts:      float64(k.lastAgg),
				Valid:         k.lastValid,
				CappedServers: k.pol.cappedCount(),
				QuotaWatts:    float64(k.quota),
				LimitWatts:    float64(k.limit),
				ContractWatts: float64(k.contract),
			}, nil
		case MethodCtrlSetContract:
			var req SetContractRequest
			if err := wire.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			if lim := req.LimitWatts; math.IsNaN(lim) || math.IsInf(lim, 0) || lim < 0 {
				return nil, fmt.Errorf("%s %s: invalid contract limit %v", k.level, k.device, lim)
			}
			k.contract = power.Watts(req.LimitWatts)
			if k.tel != nil {
				k.tel.contractReceived(k.loop.Now(), k.contract)
			}
			return &AckResponse{OK: true}, nil
		case MethodCtrlClearContract:
			k.contract = 0
			if k.tel != nil {
				k.tel.contractReceived(k.loop.Now(), 0)
			}
			return &AckResponse{OK: true}, nil
		case MethodCtrlPing:
			return &CtrlPingResponse{Healthy: k.Running(), Cycles: k.cycles}, nil
		default:
			return nil, fmt.Errorf("%s %s: unknown method %q", k.level, k.device, method)
		}
	}
}
