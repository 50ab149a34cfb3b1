package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dynamo/internal/core"
	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// recorder samples the fleet at every period boundary. It feeds every
// simulated outcome into a digest, so two runs of one workload and seed
// must print the same digest, and it accumulates the window's simulated
// end-to-end metrics.
type recorder struct {
	s       *sim.Sim
	dynamo  bool
	h       hash.Hash
	trips   int // s.Trips already digested
	alerts  int // s.Alerts already digested
	opsDone uint64
	opsFail uint64

	// Window accumulators; zero until open is called.
	window                    bool
	periods                   int
	tripPeriods, alertPeriods int
	failedPeriods             int
	windowTrips, criticals    int
	criticalMsgs              []string
	opsAttempted, opsFailed   uint64
	peakFrac                  float64
	peakDevice                string
	cappedSum                 float64
	offered0, delivered0      float64
	problems                  []string
}

func newRecorder(s *sim.Sim, dynamo bool) *recorder {
	return &recorder{s: s, dynamo: dynamo, h: sha256.New()}
}

func (r *recorder) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// open starts the timed window's accumulators.
func (r *recorder) open() {
	r.window = true
	r.offered0, r.delivered0 = r.work()
}

// work sums offered and delivered work over every service.
func (r *recorder) work() (offered, delivered float64) {
	for _, svc := range r.s.Topo.ServicesPresent() {
		st := r.s.StatsForService(svc)
		offered += st.Offered
		delivered += st.Delivered
	}
	return offered, delivered
}

// controllerOps returns controller→agent operations handled so far and how
// many failed: agent-side errors plus requests the fault injector dropped.
func (r *recorder) controllerOps() (done, failed uint64) {
	if r.s.Faults == nil {
		return 0, 0
	}
	for _, ag := range r.s.Agents {
		reads, caps, uncaps, errs := ag.Stats()
		done += reads + caps + uncaps + errs
		failed += errs
	}
	dropped, _, _ := r.s.Faults.Counts()
	return done + dropped, failed + dropped
}

func (r *recorder) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	r.h.Write(b[:])
}

// sample records the fleet state at the end of a period.
func (r *recorder) sample() {
	s := r.s
	now := s.Loop.Now()
	capped := s.CappedServerCount()
	r.word(uint64(now))
	r.word(math.Float64bits(float64(s.TotalPower())))
	r.word(uint64(capped))

	newTrips := s.Trips[r.trips:]
	r.trips = len(s.Trips)
	for _, t := range newTrips {
		fmt.Fprintf(r.h, "trip %s %d %x\n", t.Device, t.At, math.Float64bits(float64(t.Draw)))
	}
	newAlerts := s.Alerts[r.alerts:]
	r.alerts = len(s.Alerts)
	crit := 0
	for _, a := range newAlerts {
		fmt.Fprintf(r.h, "alert %d %d %s %s\n", a.Time, a.Level, a.Controller, a.Msg)
		if a.Level == core.AlertCritical {
			crit++
			if r.window && len(r.criticalMsgs) < 5 {
				r.criticalMsgs = append(r.criticalMsgs, a.String())
			}
		}
	}
	done, failed := r.controllerOps()
	dDone, dFailed := done-r.opsDone, failed-r.opsFail
	r.opsDone, r.opsFail = done, failed

	if !r.window {
		return
	}
	r.periods++
	r.windowTrips += len(newTrips)
	r.criticals += crit
	r.opsAttempted += dDone
	r.opsFailed += dFailed
	r.cappedSum += float64(capped)
	if len(newTrips) > 0 {
		r.tripPeriods++
	}
	if crit > 0 {
		r.alertPeriods++
	}
	if dFailed > 0 || (r.dynamo && len(newTrips) > 0) {
		r.failedPeriods++
	}
	for _, o := range s.Observations() {
		if f := float64(o.Power) / float64(o.Limit); f > r.peakFrac {
			r.peakFrac, r.peakDevice = f, o.Device
		}
	}
}

// prefix returns the digest of everything sampled so far.
func (r *recorder) prefix() string {
	return hex.EncodeToString(r.h.Sum(nil))
}

// finish folds the controllers' decision journals and checkpoint stream
// positions into the digest and returns it.
func (r *recorder) finish() string {
	s := r.s
	if h := s.Hierarchy; h != nil {
		for _, id := range sortedIDs(h.Leaves) {
			writeJournal(r.h, "leaf "+string(id), h.Leaves[id].Journal())
		}
		for _, id := range sortedIDs(h.Uppers) {
			writeJournal(r.h, "upper "+string(id), h.Uppers[id].Journal())
		}
	}
	if s.Store != nil {
		for _, dev := range s.Store.Devices() {
			fmt.Fprintf(r.h, "store %s %d\n", dev, s.Store.NextSeq(dev))
		}
	}
	return r.prefix()
}

func writeJournal(h hash.Hash, id string, j *core.Journal) {
	for _, rec := range j.Records() {
		fmt.Fprintf(h, "%s %d %d %x %v %d %x %d %x %d %x %x %v\n", id,
			rec.Cycle, rec.Time, math.Float64bits(float64(rec.Agg)), rec.Valid, rec.Failures,
			math.Float64bits(float64(rec.EffLimit)), rec.Action, math.Float64bits(float64(rec.Target)),
			rec.ServersPlanned, math.Float64bits(float64(rec.Achieved)),
			math.Float64bits(float64(rec.Shortfall)), rec.DryRun)
	}
}

func sortedIDs[V any](m map[topology.NodeID]V) []topology.NodeID {
	ids := make([]topology.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkDigest compares digest with the one an earlier run stored under key
// in dir, storing it when no earlier run exists.
func checkDigest(dir, key, digest string) error {
	path := filepath.Join(dir, key)
	prev, err := os.ReadFile(path)
	if err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			return fmt.Errorf("digest %s differs from %s recorded by an earlier run of %s", digest, got, key)
		}
		return nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(digest + "\n"); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
