package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dynamo/internal/power"
)

func TestBandConfigValidate(t *testing.T) {
	if err := DefaultBandConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []BandConfig{
		{CapThresholdFrac: 0.9, CapTargetFrac: 0.95, UncapThresholdFrac: 0.8}, // target > threshold
		{CapThresholdFrac: 0.99, CapTargetFrac: 0.95, UncapThresholdFrac: 0.96},
		{CapThresholdFrac: 1.2, CapTargetFrac: 0.95, UncapThresholdFrac: 0.9},
		{},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestBandsDecide(t *testing.T) {
	b := DefaultBandConfig().BandsFor(power.KW(100))
	cases := []struct {
		agg    power.Watts
		capped bool
		want   Action
	}{
		{power.KW(100), false, ActionCap}, // above threshold (99 kW)
		{power.KW(99.5), true, ActionCap}, // still above threshold
		{power.KW(97), false, ActionNone}, // hysteresis band
		{power.KW(97), true, ActionNone},  // between uncap and threshold
		{power.KW(85), true, ActionUncap}, // below uncap threshold (90 kW)
		{power.KW(85), false, ActionNone}, // nothing to uncap
	}
	for _, c := range cases {
		if got := b.Decide(c.agg, c.capped); got != c.want {
			t.Errorf("Decide(%v, capped=%v) = %v, want %v", c.agg, c.capped, got, c.want)
		}
	}
}

func TestActionString(t *testing.T) {
	if ActionCap.String() != "cap" || ActionUncap.String() != "uncap" || ActionNone.String() != "none" {
		t.Error("action strings")
	}
	if Action(9).String() == "" {
		t.Error("unknown action string")
	}
}

func mkServers(service string, powers ...float64) []ServerState {
	out := make([]ServerState, len(powers))
	for i, p := range powers {
		out[i] = ServerState{
			ID:      fmt.Sprintf("%s-%02d", service, i),
			Service: service,
			Power:   power.Watts(p),
		}
	}
	return out
}

func planCutFor(t *testing.T, plan Plan, id string) power.Watts {
	t.Helper()
	for _, c := range plan.Caps {
		if c.ID == id {
			return c.Cut
		}
	}
	return 0
}

func TestComputePlanEmpty(t *testing.T) {
	cfg := DefaultPriorityConfig()
	if p := ComputePlan(nil, 100, cfg); len(p.Caps) != 0 || p.Achieved != 0 {
		t.Error("empty servers should produce empty plan")
	}
	if p := ComputePlan(mkServers("web", 250), 0, cfg); len(p.Caps) != 0 {
		t.Error("zero cut should produce empty plan")
	}
}

func TestComputePlanHighBucketFirst(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// One high consumer (300 W) and several at 230 W: a small cut should
	// come entirely out of the 300 W server ("punish first servers
	// consuming more power").
	servers := mkServers("web", 300, 230, 230, 230)
	plan := ComputePlan(servers, 30, cfg)
	if plan.Shortfall != 0 {
		t.Fatalf("shortfall = %v", plan.Shortfall)
	}
	if got := planCutFor(t, plan, "web-00"); math.Abs(float64(got-30)) > 1e-9 {
		t.Errorf("high server cut = %v, want 30", got)
	}
	for _, id := range []string{"web-01", "web-02", "web-03"} {
		if got := planCutFor(t, plan, id); got != 0 {
			t.Errorf("%s cut = %v, want 0", id, got)
		}
	}
}

func TestComputePlanExpandsBuckets(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// 300 W server alone can only give 20 W before hitting the 280 W
	// bucket edge; a 60 W cut must spill into the 280 W bucket.
	servers := mkServers("web", 300, 285, 285)
	plan := ComputePlan(servers, 60, cfg)
	if plan.Shortfall != 0 {
		t.Fatalf("shortfall = %v", plan.Shortfall)
	}
	var total power.Watts
	for _, c := range plan.Caps {
		total += c.Cut
	}
	if math.Abs(float64(total-60)) > 1e-6 {
		t.Errorf("total cut = %v, want 60", total)
	}
	if got := planCutFor(t, plan, "web-00"); got < 20 {
		t.Errorf("highest server should give at least its bucket headroom, got %v", got)
	}
	if planCutFor(t, plan, "web-01") == 0 && planCutFor(t, plan, "web-02") == 0 {
		t.Error("cut should expand into the next bucket")
	}
}

func TestComputePlanEvenWithinBucket(t *testing.T) {
	cfg := DefaultPriorityConfig()
	servers := mkServers("web", 290, 290, 290, 290)
	plan := ComputePlan(servers, 40, cfg)
	for _, c := range plan.Caps {
		if math.Abs(float64(c.Cut-10)) > 1e-9 {
			t.Errorf("%s cut = %v, want even 10", c.ID, c.Cut)
		}
	}
}

func TestComputePlanPriorityOrdering(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// Mixed row like Fig 15: web + cache + feed. A moderate cut must not
	// touch cache (highest priority).
	servers := append(mkServers("web", 280, 270, 260),
		append(mkServers("cache", 290, 290), mkServers("newsfeed", 250, 240)...)...)
	plan := ComputePlan(servers, 100, cfg)
	for _, c := range plan.Caps {
		if c.ID[:5] == "cache" {
			t.Errorf("cache server %s was capped (cut %v)", c.ID, c.Cut)
		}
	}
	if plan.Shortfall != 0 {
		t.Errorf("shortfall = %v", plan.Shortfall)
	}
}

func TestComputePlanSpillsToHigherPriority(t *testing.T) {
	cfg := DefaultPriorityConfig()
	// An enormous cut exhausts web headroom (SLA floor 150 W) and must
	// spill into cache.
	servers := append(mkServers("web", 250, 250), mkServers("cache", 300, 300)...)
	plan := ComputePlan(servers, 350, cfg)
	webCap := power.Watts(2 * (250 - 150))
	if plan.Achieved <= webCap {
		t.Fatalf("achieved %v should exceed web headroom %v via cache", plan.Achieved, webCap)
	}
	cacheCut := planCutFor(t, plan, "cache-00") + planCutFor(t, plan, "cache-01")
	if cacheCut <= 0 {
		t.Error("cache should absorb the residual cut")
	}
}

func TestComputePlanRespectsSLAFloor(t *testing.T) {
	cfg := DefaultPriorityConfig()
	servers := mkServers("web", 250, 250, 250)
	// Ask for far more than available: each server can give at most
	// 250−150 = 100 W.
	plan := ComputePlan(servers, 1000, cfg)
	if math.Abs(float64(plan.Achieved-300)) > 1e-6 {
		t.Errorf("achieved = %v, want 300", plan.Achieved)
	}
	if math.Abs(float64(plan.Shortfall-700)) > 1e-6 {
		t.Errorf("shortfall = %v, want 700", plan.Shortfall)
	}
	for _, c := range plan.Caps {
		if c.Cap < 150-1e-9 {
			t.Errorf("%s cap %v below SLA floor", c.ID, c.Cap)
		}
	}
}

// TestComputePlanFig16Shape reproduces the Fig 16 snapshot: with a bucket
// floor at 210 W, only servers above 210 W receive caps and every cap is
// at least 210 W; cache is untouched.
func TestComputePlanFig16Shape(t *testing.T) {
	cfg := DefaultPriorityConfig()
	cfg.MinCap = map[int]power.Watts{2: 210}
	cfg.DefaultMinCap = 210
	var servers []ServerState
	for i := 0; i < 200; i++ {
		servers = append(servers, ServerState{
			ID: fmt.Sprintf("web-%03d", i), Service: "web",
			Power: power.Watts(180 + float64(i%140)),
		})
	}
	for i := 0; i < 150; i++ {
		servers = append(servers, ServerState{
			ID: fmt.Sprintf("cache-%03d", i), Service: "cache",
			Power: power.Watts(200 + float64(i%80)),
		})
	}
	for i := 0; i < 40; i++ {
		servers = append(servers, ServerState{
			ID: fmt.Sprintf("feed-%03d", i), Service: "newsfeed",
			Power: power.Watts(190 + float64(i%120)),
		})
	}
	plan := ComputePlan(servers, power.KW(6), cfg)
	if len(plan.Caps) == 0 {
		t.Fatal("expected caps")
	}
	byID := map[string]ServerState{}
	for _, s := range servers {
		byID[s.ID] = s
	}
	for _, c := range plan.Caps {
		s := byID[c.ID]
		if s.Service == "cache" {
			t.Fatalf("cache server %s capped", c.ID)
		}
		if c.Cap < 210-1e-9 {
			t.Errorf("%s cap %v below 210 W floor", c.ID, c.Cap)
		}
		if s.Power <= 210 {
			t.Errorf("server %s at %v (≤210 W) should not be capped", c.ID, s.Power)
		}
	}
}

// Property: for any fleet and cut, (1) total assigned cuts equal Achieved,
// (2) Achieved + Shortfall equals the requested cut, (3) no cap is below
// the group SLA floor, and (4) no cut exceeds the server's power.
func TestComputePlanInvariantsProperty(t *testing.T) {
	cfg := DefaultPriorityConfig()
	services := []string{"web", "cache", "hadoop", "database"}
	f := func(raw []uint16, cutRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		servers := make([]ServerState, len(raw))
		for i, r := range raw {
			servers[i] = ServerState{
				ID:      fmt.Sprintf("s%03d", i),
				Service: services[int(r)%len(services)],
				Power:   power.Watts(100 + float64(r%300)),
			}
		}
		cut := power.Watts(float64(cutRaw % 20000))
		plan := ComputePlan(servers, cut, cfg)
		var total power.Watts
		for _, c := range plan.Caps {
			s := servers[0]
			for _, x := range servers {
				if x.ID == c.ID {
					s = x
					break
				}
			}
			floor := cfg.minCapOf(cfg.priorityOf(s.Service))
			if c.Cap < floor-1e-6 && c.Cut > 0 && s.Power > floor {
				return false
			}
			if c.Cut > s.Power+1e-6 || c.Cut < 0 {
				return false
			}
			total += c.Cut
		}
		if math.Abs(float64(total-plan.Achieved)) > 1e-3 {
			return false
		}
		if cut > 0 && math.Abs(float64(plan.Achieved+plan.Shortfall-cut)) > 1e-3 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPriorityDefaults(t *testing.T) {
	cfg := DefaultPriorityConfig()
	if cfg.priorityOf("cache") <= cfg.priorityOf("web") {
		t.Error("cache must outrank web (paper §III-C3)")
	}
	if cfg.priorityOf("unknownsvc") != cfg.DefaultPriority {
		t.Error("unknown service should get default priority")
	}
	if cfg.minCapOf(99) != cfg.DefaultMinCap {
		t.Error("unknown group should get default floor")
	}
}

// TestComputePlanRoundingResidual covers a cut that two rounds of the
// web group meet in full, but whose takes sum to 207.89999999999998 W
// against the requested 207.9 W. The 3e-14 W residual is not a shortfall
// (the leaf raised a critical "short by 0.0 W" alert on it) and must not
// spill into the cache group as a near-zero cap.
func TestComputePlanRoundingResidual(t *testing.T) {
	cfg := DefaultPriorityConfig()
	web := []ServerState{
		{ID: "w0", Service: "web", Power: 284.7},
		{ID: "w1", Service: "web", Power: 223.2},
	}
	cut := power.Watts(207.9)
	plan := ComputePlan(web, cut, cfg)
	if plan.Achieved == cut {
		t.Fatalf("achieved %v equals the cut exactly; the case no longer leaves a residual", plan.Achieved)
	}
	if plan.Shortfall != 0 {
		t.Errorf("shortfall = %g W, want 0 for a float residual", float64(plan.Shortfall))
	}

	withCache := append([]ServerState{{ID: "c0", Service: "cache", Power: 300}}, web...)
	for _, c := range ComputePlan(withCache, cut, cfg).Caps {
		if c.ID == "c0" {
			t.Errorf("residual spilled into the cache group: %+v", c)
		}
	}

	// A real shortfall still reports: the web pair cannot give 400 W
	// above its SLA floor.
	if short := ComputePlan(web, 400, cfg).Shortfall; short < 1 {
		t.Errorf("shortfall = %v for an infeasible cut, want > 1 W", short)
	}
}
