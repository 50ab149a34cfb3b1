package core

import (
	"math"
	"sort"

	"dynamo/internal/power"
)

// ServerState is the leaf controller's view of one downstream server when
// planning a capping action.
type ServerState struct {
	ID      string
	Service string
	// Power is the server's current draw (possibly estimated).
	Power power.Watts
	// Estimated marks servers whose reading was reconstructed after a
	// pull failure.
	Estimated bool
}

// PriorityConfig maps services to priority groups and SLA floors
// (paper §III-C3). Higher priority numbers are more protected: capping
// consumes lower-priority groups first.
type PriorityConfig struct {
	// Priority maps service name → priority group.
	Priority map[string]int
	// DefaultPriority applies to unknown services.
	DefaultPriority int
	// MinCap is the SLA floor per priority group: the lowest allowed
	// per-server power cap. Services in higher-priority groups typically
	// carry higher floors.
	MinCap map[int]power.Watts
	// DefaultMinCap applies when a group has no explicit floor.
	DefaultMinCap power.Watts
	// BucketSize is the high-bucket-first bucket width; the paper found
	// 10–30 W works well and deploys 20 W.
	BucketSize power.Watts
}

// DefaultPriorityConfig returns the paper's service ordering: cache and
// database protected above web and newsfeed, with batch (hadoop) and
// storage capped first.
func DefaultPriorityConfig() PriorityConfig {
	return PriorityConfig{
		Priority: map[string]int{
			"hadoop":    0,
			"f4storage": 1,
			"web":       2,
			"newsfeed":  2,
			"search":    2,
			"database":  3,
			"cache":     4,
			// Cappable network devices (§III-E extension): throttling a
			// switch affects every server behind it, so the network group
			// is consumed last.
			"network": 5,
		},
		DefaultPriority: 2,
		MinCap: map[int]power.Watts{
			0: 120,
			1: 130,
			2: 150,
			3: 170,
			4: 180,
			5: 130,
		},
		DefaultMinCap: 150,
		BucketSize:    20,
	}
}

// priorityOf returns the service's priority group.
func (c PriorityConfig) priorityOf(service string) int {
	if p, ok := c.Priority[service]; ok {
		return p
	}
	return c.DefaultPriority
}

// minCapOf returns the SLA floor for a priority group.
func (c PriorityConfig) minCapOf(group int) power.Watts {
	if m, ok := c.MinCap[group]; ok {
		return m
	}
	return c.DefaultMinCap
}

// PlannedCap is one server's assignment in a capping plan.
type PlannedCap struct {
	ID string
	// Cap is the new power limit: current power less the allocated cut.
	Cap power.Watts
	// Cut is the power reduction assigned to this server.
	Cut power.Watts
}

// Plan is the outcome of distributing a total-power-cut across servers.
type Plan struct {
	Caps []PlannedCap
	// Achieved is the total cut the plan realizes.
	Achieved power.Watts
	// Shortfall is the unmet portion of the requested cut after every
	// group hit its SLA floor (> 0 means the device stays hot and the
	// parent or a human must act).
	Shortfall power.Watts
}

// planResidual is the smallest remaining cut a plan acts on. Summing a
// group's per-round takes can miss the requested cut by float rounding
// (about 1e-13 W); such a residual is zero, not a shortfall to alert on
// or a cut to push into the next priority group.
const planResidual power.Watts = 1e-3

// ComputePlan distributes totalCut across servers, lowest priority group
// first, high-bucket-first within each group (paper §III-C3).
//
// Within a group, servers are bucketed by current power (bucket width
// cfg.BucketSize). Buckets are consumed from the highest down: the active
// set's servers may be cut down to the active bucket's lower edge (but
// never below the group's SLA floor). If that capacity is insufficient,
// the next bucket joins the active set and the floor drops by one bucket
// width — reproducing the Fig 16 picture where all web servers above
// 210 W share the cut and every computed cap is at least 210 W.
func ComputePlan(servers []ServerState, totalCut power.Watts, cfg PriorityConfig) Plan {
	var plan Plan
	if totalCut <= 0 || len(servers) == 0 {
		return plan
	}
	bucket := cfg.BucketSize
	if bucket <= 0 {
		bucket = 20
	}

	// Group servers by priority, ascending (cap lowest priority first).
	groups := map[int][]ServerState{}
	for _, s := range servers {
		p := cfg.priorityOf(s.Service)
		groups[p] = append(groups[p], s)
	}
	prios := make([]int, 0, len(groups))
	for p := range groups {
		prios = append(prios, p)
	}
	sort.Ints(prios)

	remaining := totalCut
	for _, prio := range prios {
		if remaining < planResidual {
			break
		}
		group := groups[prio]
		floorSLA := cfg.minCapOf(prio)
		cuts, achieved := planGroup(group, remaining, bucket, floorSLA)
		for id, cut := range cuts {
			if cut <= 0 {
				continue
			}
			cur := power.Watts(0)
			for _, s := range group {
				if s.ID == id {
					cur = s.Power
					break
				}
			}
			plan.Caps = append(plan.Caps, PlannedCap{ID: id, Cap: cur - cut, Cut: cut})
		}
		plan.Achieved += achieved
		remaining -= achieved
	}
	if remaining >= planResidual {
		plan.Shortfall = remaining
	}
	// Deterministic order for tests and logs.
	sort.Slice(plan.Caps, func(i, j int) bool { return plan.Caps[i].ID < plan.Caps[j].ID })
	return plan
}

// planGroup distributes cut within one priority group using
// high-bucket-first and returns per-server cuts and the achieved total.
//
// The cap level descends one bucket edge per round: servers in the highest
// bucket are cut down toward the next bucket edge first; when that is not
// enough, the next bucket's servers join the active set and the floor
// drops another bucket width, and so on until the cut is satisfied or the
// floor reaches the group's SLA lower bound.
func planGroup(group []ServerState, cut power.Watts, bucket, slaFloor power.Watts) (map[string]power.Watts, power.Watts) {
	cuts := make(map[string]power.Watts)
	if cut <= 0 || len(group) == 0 {
		return cuts, 0
	}
	bucketOf := func(w power.Watts) int {
		return int(math.Floor(float64(w) / float64(bucket)))
	}
	byEdge := map[int][]ServerState{}
	maxEdge := math.MinInt32
	for _, s := range group {
		e := bucketOf(s.Power)
		byEdge[e] = append(byEdge[e], s)
		if e > maxEdge {
			maxEdge = e
		}
	}

	remaining := cut
	var achieved power.Watts
	active := make([]ServerState, 0, len(group))
	for edge := maxEdge; remaining > 0 && edge >= 0; edge-- {
		active = append(active, byEdge[edge]...)
		floor := power.Watts(edge) * bucket
		final := false
		if floor <= slaFloor {
			// Final round: the SLA bound is the floor, and every server
			// in the group (including those in lower buckets) may
			// contribute its remaining headroom above it.
			floor = slaFloor
			final = true
			// Descending edge order, matching the outer loop: iterating
			// the byEdge map directly would admit the low-bucket servers
			// in map order, and their position in active decides
			// tie-breaks in distributeEven's water-filling sort.
			for e := edge - 1; e >= 0; e-- {
				active = append(active, byEdge[e]...)
			}
		}
		rooms := make([]room, 0, len(active))
		var capacity power.Watts
		for i, s := range active {
			head := s.Power - floor - cuts[s.ID]
			if head < 0 {
				head = 0
			}
			rooms = append(rooms, room{idx: i, head: head})
			capacity += head
		}
		take := remaining
		if take > capacity {
			take = capacity
		}
		if take > 0 {
			distributeEven(active, rooms, take, cuts)
			achieved += take
			remaining -= take
		}
		if final {
			break
		}
	}
	return cuts, achieved
}

// room tracks one active server's remaining cuttable headroom.
type room struct {
	idx  int
	head power.Watts
}

// distributeEven spreads take across the active servers as evenly as
// possible subject to per-server headroom (water-filling): the paper's
// "within the bucket, all servers will get an even amount of power cut".
func distributeEven(active []ServerState, rooms []room, take power.Watts, cuts map[string]power.Watts) {
	// Sort by headroom ascending; assign min(even share, headroom).
	sort.Slice(rooms, func(i, j int) bool { return rooms[i].head < rooms[j].head })
	n := len(rooms)
	for i, r := range rooms {
		if take <= 0 {
			break
		}
		left := n - i
		share := take / power.Watts(left)
		give := share
		if give > r.head {
			give = r.head
		}
		cuts[active[r.idx].ID] += give
		take -= give
	}
}
