package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"dynamo/internal/sim"
	"dynamo/internal/topology"
)

// tiny runs a workload on a ~100-server fleet for a short window.
func tiny(t *testing.T, name string, trace bool, stateDir string) options {
	t.Helper()
	return options{
		workload: name, seed: 7, seconds: 1, trace: trace,
		stateDir: stateDir, build: "test", setups: 2,
		servers: 100, window: 12,
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// lastLine runs report and decodes its final JSON line.
func lastLine(t *testing.T, o options, res *result) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, o, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, buf.String())
	}
	return out
}

func TestTinyFleetPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := tiny(t, w.name, trace, t.TempDir())
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct {
				t.Fatalf("%s trace=%v: incorrect: %v", w.name, trace, res.problems)
			}
			out := lastLine(t, o, res)
			keys := make([]string, 0, len(out))
			for k := range out {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
				t.Fatalf("%s: result keys %s", w.name, got)
			}
			var metrics map[string]struct {
				Value float64
				Unit  string
			}
			if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(metrics), len(want))
			}
			for _, name := range want {
				if m, ok := metrics[name]; !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				}
			}
			if res.attempted != o.window {
				t.Errorf("%s: attempted %d periods, want %d", w.name, res.attempted, o.window)
			}
		}
	}
}

func TestDigestRejectsPerturbedRun(t *testing.T) {
	dir := t.TempDir()
	first, err := run(tiny(t, "capping-10k", false, dir))
	if err != nil {
		t.Fatal(err)
	}
	again, err := run(tiny(t, "capping-10k", true, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !first.correct || !again.correct || first.digest != again.digest {
		t.Fatalf("same seed: digests %s / %s, problems %v / %v",
			first.digest, again.digest, first.problems, again.problems)
	}

	o := tiny(t, "capping-10k", false, dir)
	o.extra = func(s *sim.Sim) {
		rack := s.Topo.OfKind(topology.KindRack)[0].ID
		s.At(70*time.Second, func() { s.SetExtraLoadUnder(rack, 0.05) })
	}
	perturbed, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.correct || perturbed.digest == first.digest {
		t.Fatalf("perturbed run accepted: digest %s, problems %v", perturbed.digest, perturbed.problems)
	}
	if !strings.Contains(strings.Join(perturbed.problems, "\n"), "recorded by an earlier run") {
		t.Fatalf("perturbed run failed for another reason: %v", perturbed.problems)
	}
}

func TestTailOf(t *testing.T) {
	// 90 periods make three blocks of 30; each block's 3rd-highest is
	// 28 + its offset, and one slow block does not move the median.
	xs := make([]float64, 90)
	for i := range xs {
		xs[i] = float64(i%30 + 1)
	}
	for i := 60; i < 90; i++ {
		xs[i] *= 10
	}
	if v, p, k := tailOf(xs); v != 28 || k != 3 || math.Abs(p-100*28.0/30) > 1e-9 {
		t.Fatalf("tailOf = %v, p%v over %d blocks; want 28, p93.3 over 3", v, p, k)
	}
	if v, _, k := tailOf(xs[:5]); v != 3 || k != 1 {
		t.Fatalf("tailOf(1..5) = %v over %d blocks; want the 3rd-highest, 3, over 1", v, k)
	}
}
