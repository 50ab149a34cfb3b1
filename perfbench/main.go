// Command perfbench is the repository benchmark: it runs one named fleet
// workload on the simulator, checks the simulated outcome, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload capping-10k --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	o := options{setups: 5, stateDir: filepath.Join(".bench_build", "perfbench-digests")}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: capping-10k or openloop-48k")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the fleet and scenario")
	fs.IntVar(&o.seconds, "seconds", 15, "host seconds one timed window should take (sets its simulated length)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	build, err := executableHash()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.build = build
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// executableHash fingerprints the running binary, so digests recorded by
// a different build of the program are never compared with this one.
func executableHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// report prints a readable summary and, last, the JSON result line.
func report(w io.Writer, o options, res *result) error {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d servers=%d window=%d periods (%.2f sim-min) %s\n",
		o.workload, o.seed, res.servers, res.periods, res.simMin, mode)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  digest %s\n", res.digest)
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
