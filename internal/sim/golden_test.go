package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dynamo/internal/core"
	"dynamo/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/determinism.sha256 from the current code (record every use in CHANGES.md)")

const goldenDigestFile = "testdata/determinism.sha256"

// TestSimDeterminismPinned pins the base determinism scenario to a
// checked-in SHA-256. TestSimDeterminismGolden only checks that
// configurations agree with each other, so a change that moves every
// configuration the same way passes it; this digest catches that. It
// covers the fingerprint (floats by their bit patterns), the checkpoint
// store digest and every record of every controller journal.
//
// Regenerate with `go test ./internal/sim -run TestSimDeterminismPinned
// -update-golden` only for a deliberate behaviour change.
func TestSimDeterminismPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// arm64 fuses multiply-add, so float results may legitimately
		// differ in the last bits from the amd64 recording.
		t.Skipf("digest recorded on amd64; floats may differ on %s", runtime.GOARCH)
	}
	s, fp := runDetSim(t, 1, 1, nil, true, 0, false)
	if len(fp.Trips) == 0 {
		t.Fatal("scenario produced no trips; the pin is vacuous")
	}
	got := pinDigest(fp, storeDigest(s.Store), hierarchyJournals(s))

	path := filepath.FromSlash(goldenDigestFile)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s", path, got)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pinned digest: %v (regenerate with -update-golden)", err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("determinism digest changed:\n got  %s\n want %s\nbehaviour of the base scenario moved; if deliberate, rerun with -update-golden and record it in CHANGES.md", got, want)
	}
}

// pinHasher feeds fixed-width little-endian fields into a SHA-256.
type pinHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (p *pinHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(p.buf[:], v)
	p.h.Write(p.buf[:])
}

func (p *pinHasher) f64(v float64) { p.u64(math.Float64bits(v)) }

func (p *pinHasher) str(s string) {
	p.u64(uint64(len(s)))
	p.h.Write([]byte(s))
}

func (p *pinHasher) flag(b bool) {
	if b {
		p.u64(1)
	} else {
		p.u64(0)
	}
}

// pinDigest hashes a run's fingerprint, store digest and journals in a
// fixed order: map keys sorted, floats by math.Float64bits.
func pinDigest(fp fingerprint, store map[string][]uint64, journals map[string][]core.DecisionRecord) string {
	p := &pinHasher{h: sha256.New()}

	p.u64(uint64(len(fp.Trips)))
	for _, tr := range fp.Trips {
		p.str(string(tr.Device))
		p.str(fmt.Sprint(tr.Class))
		p.u64(uint64(tr.At))
		p.f64(float64(tr.Draw))
	}
	p.u64(uint64(fp.Alerts))
	ids := make([]string, 0, len(fp.Series))
	for id := range fp.Series {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		vals := fp.Series[topology.NodeID(id)]
		p.str(id)
		p.u64(uint64(len(vals)))
		for _, v := range vals {
			p.f64(v)
		}
	}
	p.f64(fp.Total)

	for _, dev := range sortedKeys(store) {
		p.str(dev)
		row := store[dev]
		p.u64(uint64(len(row)))
		for _, v := range row {
			p.u64(v)
		}
	}

	for _, dev := range sortedKeys(journals) {
		recs := journals[dev]
		p.str(dev)
		p.u64(uint64(len(recs)))
		for _, r := range recs {
			p.u64(r.Cycle)
			p.u64(uint64(r.Time))
			p.f64(float64(r.Agg))
			p.flag(r.Valid)
			p.u64(uint64(r.Failures))
			p.f64(float64(r.EffLimit))
			p.u64(uint64(r.Action))
			p.f64(float64(r.Target))
			p.u64(uint64(r.ServersPlanned))
			p.f64(float64(r.Achieved))
			p.f64(float64(r.Shortfall))
			p.flag(r.DryRun)
		}
	}
	return hex.EncodeToString(p.h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
