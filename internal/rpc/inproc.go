package rpc

import (
	"math/rand/v2"
	"sync"
	"time"

	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// Network is the in-process transport: a registry of endpoints reachable
// by address, with simulated one-way latency and fault injection. All
// delivery is scheduled on a simclock.Loop, so behaviour is deterministic.
//
// Network is safe for use from the loop goroutine; Register/Unregister and
// fault-injection setters may also be called before the loop starts.
type Network struct {
	loop    simclock.Loop
	latency time.Duration
	rng     *rand.Rand

	mu          sync.Mutex
	endpoints   map[string]Handler
	partitioned map[string]bool
	dropRate    map[string]float64
}

// dropSalt names the drop-rate stream: a PCG seeded (uint64(seed), dropSalt).
const dropSalt = 0x64726f70 // "drop"

// NewNetwork creates an in-process network with the given one-way latency
// (zero is allowed and common for consolidated controllers that share a
// process, paper §III-A).
func NewNetwork(loop simclock.Loop, latency time.Duration, seed int64) *Network {
	return &Network{
		loop:        loop,
		latency:     latency,
		rng:         rand.New(rand.NewPCG(uint64(seed), dropSalt)),
		endpoints:   make(map[string]Handler),
		partitioned: make(map[string]bool),
		dropRate:    make(map[string]float64),
	}
}

// Register installs a handler at addr, replacing any previous handler.
func (n *Network) Register(addr string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[addr] = h
}

// Unregister removes the endpoint; subsequent calls get ErrUnreachable.
func (n *Network) Unregister(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// SetPartitioned isolates (or heals) an endpoint: calls to a partitioned
// address time out rather than failing fast, like a real network hang.
func (n *Network) SetPartitioned(addr string, yes bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if yes {
		n.partitioned[addr] = true
	} else {
		delete(n.partitioned, addr)
	}
}

// SetDropRate makes a fraction of calls to addr hang (and eventually time
// out on the caller side).
func (n *Network) SetDropRate(addr string, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate <= 0 {
		delete(n.dropRate, addr)
	} else {
		n.dropRate[addr] = rate
	}
}

// lookup returns the handler and whether the message should be delivered.
func (n *Network) lookup(addr string) (h Handler, exists, deliver bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, exists = n.endpoints[addr]
	if !exists {
		return nil, false, false
	}
	if n.partitioned[addr] {
		return h, true, false
	}
	if r := n.dropRate[addr]; r > 0 && n.rng.Float64() < r {
		return h, true, false
	}
	return h, true, true
}

// Dial returns a client for addr. Dialling an unknown address succeeds;
// calls will fail with ErrUnreachable, matching lazy TCP connection
// establishment.
func (n *Network) Dial(addr string) Client {
	return &inprocClient{net: n, addr: addr}
}

type inprocClient struct {
	net    *Network
	addr   string
	closed bool
}

// Call implements Client.
func (c *inprocClient) Call(method string, req wire.Message, timeout time.Duration, done func([]byte, error)) {
	n := c.net
	if c.closed {
		n.loop.After(0, func() { done(nil, ErrClosed) })
		return
	}
	call := &inprocCall{client: c, method: method, body: wire.Marshal(req), done: done}
	if timeout > 0 {
		call.deadline = n.loop.After(timeout, call.expire)
	}
	n.loop.After(n.latency, call.deliver)
}

// inprocCall is one in-flight in-proc call. Call, its deadline and both
// network legs all run on the loop, so a plain flag completes it once.
type inprocCall struct {
	client   *inprocClient
	method   string
	body     []byte
	done     func([]byte, error)
	deadline *simclock.Timer // nil without a timeout
	finished bool

	// The handler's result, held for the response leg.
	resp wire.Message
	err  error
}

func (r *inprocCall) finish(resp []byte, err error) {
	if r.finished {
		return
	}
	r.finished = true
	r.deadline.Stop()
	r.done(resp, err)
}

func (r *inprocCall) expire() { r.finish(nil, ErrTimeout) }

// deliver runs the request leg: look up the endpoint, run the handler and
// schedule the response leg.
func (r *inprocCall) deliver() {
	n := r.client.net
	h, exists, deliver := n.lookup(r.client.addr)
	if !exists {
		r.finish(nil, ErrUnreachable)
		return
	}
	if !deliver {
		// Partitioned or dropped: the request vanishes; only the
		// caller's timeout (if any) will complete the call.
		if r.deadline == nil {
			r.finish(nil, ErrUnreachable)
		}
		return
	}
	r.resp, r.err = h(r.method, r.body)
	n.loop.After(n.latency, r.respond)
}

func (r *inprocCall) respond() {
	if r.err != nil {
		r.finish(nil, &RemoteError{Method: r.method, Msg: r.err.Error()})
		return
	}
	r.finish(wire.Marshal(r.resp), nil)
}

// Close implements Client.
func (c *inprocClient) Close() error {
	c.closed = true
	return nil
}
