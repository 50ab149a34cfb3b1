package agent

import (
	"testing"
	"time"

	"dynamo/internal/platform"
	"dynamo/internal/race"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
)

// TestReadPowerRoundTripAllocs bounds the allocations of one in-proc
// ReadPower round trip with a deadline armed, as the leaf makes one per
// server per cycle. The nine are the call record, three loop timers and
// their three callbacks (deadline, request leg, response leg), the
// agent's response message and the encoded response.
func TestReadPowerRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	loop := simclock.NewSimLoop()
	net := rpc.NewNetwork(loop, time.Millisecond, 1)
	a, _ := newTestAgent(t, 0.6, platform.Options{Seed: 1})
	net.Register("agent", a.Handler())
	cl := net.Dial("agent")
	var n int
	var callErr error
	done := func(resp []byte, err error) { n, callErr = len(resp), err }
	allocs := testing.AllocsPerRun(200, func() {
		cl.Call(MethodReadPower, rpc.Empty, time.Second, done)
		loop.Drain()
	})
	if callErr != nil || n == 0 {
		t.Fatalf("round trip: %d bytes, err %v", n, callErr)
	}
	if allocs > 9 {
		t.Errorf("%.1f allocs per ReadPower round trip, want <= 9", allocs)
	}
}
