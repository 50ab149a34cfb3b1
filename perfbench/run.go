package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"dynamo/internal/sim"
	"dynamo/internal/telemetry"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// stateDir holds the digests earlier runs recorded, keyed by build
	// (a fingerprint of the binary) so only runs of the same program are
	// compared.
	stateDir string
	build    string
	// setups is how many times the fleet is built to time set-up.
	setups int
	// servers, when positive, overrides the workload's fleet size and
	// window, when positive, its number of timed periods (tests use both
	// to run tiny fleets).
	servers int
	window  int
	// extra, when set, adds scenario events to every build (tests use it
	// to perturb a run).
	extra func(*sim.Sim)
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything one invocation reports.
type result struct {
	servers   int
	periods   int
	simMin    float64
	correct   bool
	problems  []string
	attempted int
	failed    int
	digest    string
	metrics   []metric
	notes     []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fleet is one built simulation with its recorder.
type fleet struct {
	s   *sim.Sim
	rec *recorder
	k   int // periods run so far
}

// build constructs and starts a fleet, returning it with its set-up time:
// sim.New (topology, servers, agents, controller hierarchy) and Start.
func build(w workload, o options, tel *telemetry.Sink) (*fleet, time.Duration, error) {
	cfg := w.config(o.seed, o.servers)
	cfg.Telemetry = tel
	runtime.GC()
	start := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", w.name, err)
	}
	s.Start()
	setup := time.Since(start)
	w.scenario(s, o.seed)
	if o.extra != nil {
		o.extra(s)
	}
	return &fleet{s: s, rec: newRecorder(s, w.dynamo)}, setup, nil
}

// periods advances n periods with advance, sampling after each, and
// returns the host time each advance took.
func (f *fleet) periods(n int, advance func(time.Duration)) []time.Duration {
	durs := make([]time.Duration, n)
	for i := range durs {
		f.k++
		target := periodEnd(f.k)
		start := time.Now()
		advance(target)
		durs[i] = time.Since(start)
		if now := f.s.Loop.Now(); now != target {
			f.rec.problem("clock at %v after period %d, want %v", now, f.k, target)
		}
		f.rec.sample()
	}
	return durs
}

// window is what one timed window measured.
type window struct {
	durs       []time.Duration
	simMin     float64
	heapBytes  uint64
	allocBytes uint64
	gcFrac     float64
	events     uint64
	appends    uint64
	cycles     uint64
	capEvents  uint64
	servers    int
}

func (w window) hostSPerSimMin() float64 {
	var sum time.Duration
	for _, d := range w.durs {
		sum += d
	}
	return sum.Seconds() / w.simMin
}

// measure runs a timed window of n periods. It first collects garbage and
// returns freed memory to the OS, so the runtime's background scavenger
// does not compete with the window for CPU.
func (f *fleet) measure(n int, advance func(time.Duration)) window {
	s := f.s
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := window{heapBytes: ms.HeapAlloc, servers: len(s.Servers), simMin: float64(n) * period.Minutes()}
	alloc0 := ms.TotalAlloc
	gc0, cpu0 := gcCPU()
	steps0, appends0 := s.Loop.Steps(), f.appends()
	cycles0, caps0 := f.controllerCounts()
	f.rec.open()

	w.durs = f.periods(n, advance)

	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms)
	w.allocBytes = ms.TotalAlloc - alloc0
	if cpu1 > cpu0 {
		w.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	w.events = s.Loop.Steps() - steps0
	w.appends = f.appends() - appends0
	cycles1, caps1 := f.controllerCounts()
	w.cycles, w.capEvents = cycles1-cycles0, caps1-caps0
	return w
}

// appends sums the checkpoint appends every controller made.
func (f *fleet) appends() uint64 {
	st := f.s.Store
	if st == nil {
		return 0
	}
	var n uint64
	for _, dev := range st.Devices() {
		n += st.NextSeq(dev) - 1
	}
	return n
}

// controllerCounts sums decision cycles and capping events over every
// controller.
func (f *fleet) controllerCounts() (cycles, capEvents uint64) {
	h := f.s.Hierarchy
	if h == nil {
		return 0, 0
	}
	for _, l := range h.Leaves {
		cycles += l.Cycles()
		capEvents += l.CapEvents()
	}
	for _, u := range h.Uppers {
		cycles += u.Cycles()
		capEvents += u.CapEvents()
	}
	return cycles, capEvents
}

// gcCPU reads the runtime's GC and total CPU-time estimates.
func gcCPU() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// run executes one benchmark invocation. The fleet is built o.setups
// times to time set-up; the first and last builds both run the warm-up,
// and their digests must agree. The last build runs the timed window
// untraced. With o.trace a further build, instrumented by a tracer, runs
// the same window traced; its digest must match the untraced one.
func run(o options) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	n := o.window
	if n <= 0 {
		n = int(math.Max(1, math.Round(float64(o.seconds)*w.periodsPerSecond)))
	}
	if o.setups < 1 || o.trace {
		// A traced run reports no set-up time; its traced build is the
		// second build the warm-up digest is compared against.
		o.setups = 1
	}
	res := &result{periods: n, simMin: float64(n) * period.Minutes()}
	problem := func(format string, args ...interface{}) {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}

	var setups []float64
	var warmDigest string
	var f *fleet
	for i := 0; i < o.setups; i++ {
		f = nil // let the previous build be collected before timing the next
		nf, d, err := build(w, o, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i == 0 || i == o.setups-1 {
			nf.periods(warmPeriods, nf.s.Loop.RunUntil)
			if i == 0 {
				warmDigest = nf.rec.prefix()
			} else if got := nf.rec.prefix(); got != warmDigest {
				problem("warm-up digest %s of the last build differs from %s of the first", got, warmDigest)
			}
		}
		f = nf
	}
	res.servers = len(f.s.Servers)
	win := f.measure(n, f.s.Loop.RunUntil)
	res.digest = f.rec.finish()
	checkFleet(f, w, n, problem)
	key := fmt.Sprintf("%s-%s-n%d-seed%d-warm%d-win%d", o.build, w.name, res.servers, o.seed, warmPeriods, n)
	if err := checkDigest(o.stateDir, key, res.digest); err != nil {
		problem("%v", err)
	}
	rec := f.rec
	res.attempted, res.failed = rec.periods, rec.failedPeriods

	if !o.trace {
		endToEnd(res, win, rec, setups)
	} else {
		f, rec = nil, nil
		sink := telemetry.NewSink()
		tf, _, err := build(w, o, sink)
		if err != nil {
			return nil, err
		}
		tf.periods(warmPeriods, tf.s.Loop.RunUntil)
		if got := tf.rec.prefix(); got != warmDigest {
			problem("traced warm-up digest %s differs from untraced %s", got, warmDigest)
		}
		tr := newTracer(tf.s, sink, o.seed)
		twin := tf.measure(n, tr.runUntil)
		if got := tf.rec.finish(); got != res.digest {
			problem("traced digest %s differs from untraced %s", got, res.digest)
		}
		checkFleet(tf, w, n, problem)
		perLayer(res, tr, twin, win, tf.rec)
	}
	res.correct = len(res.problems) == 0
	return res, nil
}

// checkFleet applies the end-of-run correctness checks.
func checkFleet(f *fleet, w workload, n int, problem func(string, ...interface{})) {
	for _, p := range f.rec.problems {
		problem("%s", p)
	}
	if want := periodEnd(warmPeriods + n); f.s.Loop.Now() != want {
		problem("clock ended at %v, want %v", f.s.Loop.Now(), want)
	}
	if w.dynamo && len(f.s.Trips) > 0 {
		t := f.s.Trips[0]
		problem("%d breaker trips with Dynamo on; first %s at %v", len(f.s.Trips), t.Device, t.At)
	}
}

// endToEnd fills the untraced metrics.
func endToEnd(res *result, win window, rec *recorder, setups []float64) {
	ms := make([]float64, len(win.durs))
	for i, d := range win.durs {
		ms[i] = d.Seconds() * 1e3
	}
	tail, pct, blocks := tailOf(ms)
	offered, delivered := rec.work()
	offered -= rec.offered0
	delivered -= rec.delivered0

	res.add("host_s_per_sim_min", win.hostSPerSimMin(), "s")
	res.add("period_ms_p50", median(ms), "ms")
	res.add("period_ms_tail", tail, "ms")
	res.add("setup_s", median(setups), "s")
	res.add("heap_kb_per_server", float64(win.heapBytes)/1e3/float64(win.servers), "KB")
	res.add("alloc_mb_per_sim_min", float64(win.allocBytes)/1e6/win.simMin, "MB")
	res.add("trip_free_period_frac", 1-float64(rec.tripPeriods)/float64(rec.periods), "ratio")
	res.add("peak_draw_frac", rec.peakFrac, "ratio")
	res.add("work_delivered_frac", delivered/offered, "ratio")
	res.add("alert_free_period_frac", 1-float64(rec.alertPeriods)/float64(rec.periods), "ratio")
	res.add("ok_op_frac", okFrac(rec.opsAttempted, rec.opsFailed), "ratio")

	res.note("period_ms_tail is the median over %d blocks of each block's p%.2f (its 3rd-highest); n=%d periods",
		blocks, pct, len(ms))
	res.note("setup_s samples: %v", setups)
	res.note("peak draw at %s", rec.peakDevice)
	res.note("breaker_trips=%d (%d since t=0) critical_alerts=%d controller_ops=%d failed_ops=%d",
		rec.windowTrips, rec.trips, rec.criticals, rec.opsAttempted, rec.opsFailed)
	for _, m := range rec.criticalMsgs {
		res.note("critical alert: %s", m)
	}
}

// perLayer fills the traced metrics: tr and twin from the traced window,
// ref from the untraced window of the same seed and span.
func perLayer(res *result, tr *tracer, twin, ref window, rec *recorder) {
	wall := tr.wall.Seconds()
	share := func(d time.Duration) float64 { return d.Seconds() / wall }
	perMin := func(v float64) float64 { return v / twin.simMin }
	ticks := math.Max(1, float64(tr.ticks))

	res.add("simclock.events_per_sim_min", perMin(float64(twin.events-uint64(res.periods))), "1/min")
	res.add("simclock.pending_max", float64(tr.pendingMax), "count")
	res.add("simclock.event_ns_p50", tr.eventNs.median(), "ns")
	res.add("sim.tick_ms_p50", tr.tickMs.median(), "ms")
	res.add("sim.tick_busy_frac", share(tr.tick), "ratio")
	res.add("sim.dirty_server_frac", tr.dirtySum/ticks, "ratio")
	res.add("sim.reagg_device_frac", tr.reaggSum/ticks, "ratio")
	res.add("rpc.deliver_ns_p50", tr.deliverNs.median(), "ns")
	res.add("rpc.deliver_busy_frac", share(tr.deliver), "ratio")
	res.add("wire.req_bytes_per_call", float64(tr.reqBytes)/math.Max(1, float64(tr.reads+tr.writes)), "B")
	res.add("agent.read_calls_per_sim_min", perMin(float64(tr.reads)), "1/min")
	res.add("agent.write_calls_per_sim_min", perMin(float64(tr.writes)), "1/min")
	res.add("agent.read_ns_p50", tr.readNs.median(), "ns")
	res.add("agent.write_ns_p50", tr.writeNs.median(), "ns")
	res.add("agent.busy_frac", share(tr.agentT), "ratio")
	res.add("agent.error_frac", 1-okFrac(rec.opsAttempted, rec.opsFailed), "ratio")
	res.add("core.observe_ms_p50", tr.observeMs.median(), "ms")
	res.add("core.act_ms_p50", tr.actMs.median(), "ms")
	res.add("core.observe_busy_frac", share(tr.observeT), "ratio")
	res.add("core.act_busy_frac", share(tr.actT), "ratio")
	res.add("core.collect_busy_frac", share(tr.collect), "ratio")
	res.add("core.cycles_per_sim_min", perMin(float64(twin.cycles)), "1/min")
	res.add("core.cap_events_per_sim_min", perMin(float64(twin.capEvents)), "1/min")
	res.add("core.capped_servers", rec.cappedSum/float64(rec.periods), "count")
	res.add("core.critical_alerts", float64(rec.criticals), "count")
	res.add("statestore.appends_per_sim_min", perMin(float64(twin.appends)), "1/min")
	res.add("power.breaker_trips", float64(rec.windowTrips), "count")
	res.add("runtime.gc_cpu_frac", ref.gcFrac, "ratio")
	res.add("trace.unattributed_frac", share(tr.wall-tr.attributed()), "ratio")
	res.add("trace.overhead_frac", twin.hostSPerSimMin()/ref.hostSPerSimMin()-1, "ratio")

	res.note("traced %.2fs wall over %.1f sim-min; untraced reference %.4f s/sim-min, traced %.4f s/sim-min",
		wall, twin.simMin, ref.hostSPerSimMin(), twin.hostSPerSimMin())
	res.note("traced gc_cpu_frac %.4f (telemetry sink on)", twin.gcFrac)
}

// okFrac is the share of operations that did not fail; 1 when none ran.
func okFrac(attempted, failed uint64) float64 {
	if attempted == 0 {
		return 1
	}
	return 1 - float64(failed)/float64(attempted)
}

// tailBlock is the number of consecutive periods in one block of the
// period tail.
const tailBlock = 30

// tailOf returns the period tail of xs, in time order. The window is cut
// into consecutive blocks of about tailBlock periods (a shorter window is
// one block); each block gives its highest percentile with at least two
// samples beyond it, its 3rd-highest period; the tail is the median over
// blocks. A slow phase of a shared host that covers fewer than half the
// blocks does not move it, while work that recurs in every block, such as
// the 9 s upper cycle that lands in every third period, does. It also
// returns the per-block percentile and the number of blocks.
func tailOf(xs []float64) (value, pct float64, blocks int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	blocks = max(1, n/tailBlock)
	tails := make([]float64, blocks)
	for b := range tails {
		s := append([]float64(nil), xs[b*n/blocks:(b+1)*n/blocks]...)
		sort.Float64s(s)
		tails[b] = s[max(0, len(s)-3)]
	}
	size := n / blocks
	return median(tails), 100 * float64(max(1, size-2)) / float64(size), blocks
}
