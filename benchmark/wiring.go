package main

// wiring.go is the one place that knows how the SDX layers are joined. It
// mirrors cmd/sdx-controller/main.go — BGP over loopback TCP into a
// routeserver.Frontend, Controller.FastReact on its OnPrefixes hook,
// SwitchServer.PushFastAll, OpenFlow over loopback TCP, and a
// dataplane.Switch running ServeController — inside one process, so a later
// refactor of the ingest path changes this file and nothing else here.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
	"sdx/internal/workload"
)

// topologySeed fixes the exchange every run measures (members, announcement
// skew, policy mix). --seed varies the events driven through it — bursts,
// fresh policies, flows — not the exchange: compile time and rule count move
// ±15 % between generated exchanges, which would drown a 10 % regression
// bound in input variation rather than measurement noise.
const topologySeed = 20140817

// waitTimeout bounds every wait on the program under test; exceeding it is
// reported as a failed operation, never a hang.
const waitTimeout = 30 * time.Second

// waitUntil blocks on cond (whose locker is mu) until ready reports true, or
// waitTimeout passes; it reports whether ready held. ready runs with mu held.
func waitUntil(mu *sync.Mutex, cond *sync.Cond, ready func() bool) bool {
	timer := time.AfterFunc(waitTimeout, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(waitTimeout)
	mu.Lock()
	defer mu.Unlock()
	for !ready() {
		if time.Now().After(deadline) {
			return false
		}
		cond.Wait()
	}
	return true
}

// ofObserver wraps the controller side of the OpenFlow TCP connection. It is
// how the harness sees, from outside, what SwitchServer writes (FLOW_MODs,
// BARRIER_REQUESTs) and when the switch's BARRIER_REPLY comes back — the
// "forwarding changed" instant of the convergence metric.
type ofObserver struct {
	net.Conn

	mu       sync.Mutex
	cond     *sync.Cond
	out, in  ofFramer
	flowMods int
	deletes  int
	bytesOut int
	requests int         // BARRIER_REQUESTs written
	replyAt  []time.Time // arrival time of the n-th BARRIER_REPLY
	onReply  map[int]func()
	tr       *tracer // traced runs keep what is written on the clock, for layer replay
	captured []byte
}

// ofFramer splits a byte stream into OpenFlow messages regardless of how
// reads and writes chunk it, keeping just enough of each message (header,
// match, cookie, command) to classify it.
type ofFramer struct {
	buf  [64]byte
	have int // bytes of the current message seen so far
	size int // its total length once the header is complete
}

// ofHeaderLen is the fixed OpenFlow header; a FLOW_MOD's command follows the
// header, the 40-byte match and the 8-byte cookie.
const (
	ofHeaderLen     = 8
	ofFlowModCmdOff = ofHeaderLen + 40 + 8
)

func (f *ofFramer) feed(b []byte, onMsg func(prefix []byte, size int)) {
	for len(b) > 0 {
		if f.have < ofHeaderLen {
			n := copy(f.buf[f.have:ofHeaderLen], b)
			f.have += n
			b = b[n:]
			if f.have < ofHeaderLen {
				return
			}
			f.size = max(int(binary.BigEndian.Uint16(f.buf[2:4])), ofHeaderLen)
		}
		n := min(f.size-f.have, len(b))
		if f.have < len(f.buf) {
			copy(f.buf[f.have:], b[:n])
		}
		f.have += n
		b = b[n:]
		if f.have == f.size {
			onMsg(f.buf[:min(f.size, len(f.buf))], f.size)
			f.have, f.size = 0, 0
		}
	}
}

func newOFObserver(c net.Conn, tr *tracer) *ofObserver {
	o := &ofObserver{Conn: c, tr: tr, onReply: make(map[int]func())}
	o.cond = sync.NewCond(&o.mu)
	return o
}

func (o *ofObserver) Write(b []byte) (int, error) {
	o.mu.Lock()
	o.out.feed(b, func(p []byte, size int) {
		switch openflow.MsgType(p[1]) {
		case openflow.TypeFlowMod:
			o.flowMods++
			o.bytesOut += size
			if len(p) >= ofFlowModCmdOff+2 {
				cmd := binary.BigEndian.Uint16(p[ofFlowModCmdOff:])
				if cmd == openflow.FlowModDelete || cmd == openflow.FlowModDeleteStrict {
					o.deletes++
				}
			}
		case openflow.TypeBarrierRequest:
			o.requests++
		}
	})
	if o.tr != nil && o.tr.on.Load() {
		o.captured = append(o.captured, b...)
	}
	o.mu.Unlock()
	return o.Conn.Write(b)
}

func (o *ofObserver) Read(b []byte) (int, error) {
	n, err := o.Conn.Read(b)
	if n > 0 {
		now := time.Now()
		var fire []func()
		o.mu.Lock()
		before := len(o.replyAt)
		o.in.feed(b[:n], func(p []byte, _ int) {
			if openflow.MsgType(p[1]) == openflow.TypeBarrierReply {
				o.replyAt = append(o.replyAt, now)
				if fn := o.onReply[len(o.replyAt)]; fn != nil {
					fire = append(fire, fn)
					delete(o.onReply, len(o.replyAt))
				}
			}
		})
		if len(o.replyAt) > before {
			o.cond.Broadcast()
		}
		o.mu.Unlock()
		for _, fn := range fire {
			fn()
		}
	}
	return n, err
}

// barriersSent is how many BARRIER_REQUESTs have been written so far. Called
// right after a push returns, it names the barrier that fences that push.
func (o *ofObserver) barriersSent() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.requests
}

// notifyReply runs fn (on the OpenFlow read goroutine) when the n-th reply
// arrives, or at once if it already has.
func (o *ofObserver) notifyReply(n int, fn func()) {
	o.mu.Lock()
	if len(o.replyAt) >= n {
		o.mu.Unlock()
		fn()
		return
	}
	o.onReply[n] = fn
	o.mu.Unlock()
}

// waitReply blocks until the n-th BARRIER_REPLY has been read and returns
// when it arrived.
func (o *ofObserver) waitReply(n int) (time.Time, error) {
	if n == 0 {
		return time.Time{}, nil
	}
	var at time.Time
	if !waitUntil(&o.mu, o.cond, func() bool {
		if len(o.replyAt) >= n {
			at = o.replyAt[n-1]
		}
		return len(o.replyAt) >= n
	}) {
		return at, fmt.Errorf("barrier reply %d not seen within %v", n, waitTimeout)
	}
	return at, nil
}

// writtenOnClock returns the bytes a traced run wrote while on its clock.
func (o *ofObserver) writtenOnClock() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.captured
}

// ofCounts is a snapshot of what the controller has written to the switch.
type ofCounts struct{ flowMods, deletes, bytes int }

func (o *ofObserver) counts() ofCounts {
	o.mu.Lock()
	defer o.mu.Unlock()
	return ofCounts{o.flowMods, o.deletes, o.bytesOut}
}

// Sentinels (198.18.0.0/15 is the benchmarking range) mark completion: a
// session advertises its sentinel with the sequence number as MED. The
// attribute change is a best-route change, so it is re-advertised to the
// other session only after everything sent before it on the same session
// has been applied and emitted — sessions deliver in order and emission to a
// peer is serialized.
func sentinelPrefix(member int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(member >> 8), byte(member)}), 32)
}

// bgpClient is one participant border router: a real bgp.Speaker dialed into
// the route server. Its Adj-RIB-In (peer.In) is what the oracles compare
// against the route server's decisions.
type bgpClient struct {
	member   int
	id       core.ID
	speaker  *bgp.Speaker
	peer     *bgp.Peer
	sentinel bgp.PathAttrs
	sentSeq  uint32

	watch netip.Prefix // the other session's sentinel
	mu    sync.Mutex
	cond  *sync.Cond
	seen  uint32      // highest sentinel sequence observed
	at    []time.Time // at[s]: when sequence s (or a later one that supersedes it) was first decoded
	nlri  uint64
	msgs  uint64
}

func dialClient(ex *workload.Exchange, member, watch int, addr string) (*bgpClient, error) {
	m := ex.Members[member]
	c := &bgpClient{
		member: member,
		id:     m.ID,
		watch:  sentinelPrefix(watch),
		at:     make([]time.Time, 1, 1024),
		sentinel: bgp.PathAttrs{
			NextHop: m.Ports[0].RouterIP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{m.AS}}},
			HasMED:  true,
		},
	}
	c.cond = sync.NewCond(&c.mu)
	c.speaker = bgp.NewSpeaker(bgp.SessionConfig{LocalAS: m.AS, LocalID: m.Ports[0].RouterIP})
	c.speaker.OnUpdate = c.onUpdate
	peer, err := c.speaker.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dialing route server as %s: %w", m.ID, err)
	}
	c.peer = peer
	return c, nil
}

func (c *bgpClient) onUpdate(_ *bgp.Peer, u *bgp.Update) {
	now := time.Now()
	c.mu.Lock()
	c.msgs++
	c.nlri += uint64(len(u.NLRI))
	if u.Attrs.HasMED && u.Attrs.MED > c.seen {
		for _, p := range u.NLRI {
			if p == c.watch {
				// The frontend's emitters coalesce: sequence 7 may arrive
				// without 5 and 6 ever being sent. It still proves they were
				// applied, so it completes them too.
				for s := c.seen + 1; s <= u.Attrs.MED; s++ {
					c.at = append(c.at, now)
				}
				c.seen = u.Attrs.MED
				c.cond.Broadcast()
				break
			}
		}
	}
	c.mu.Unlock()
}

// sendSentinel advertises this session's sentinel at the next sequence.
func (c *bgpClient) sendSentinel() (uint32, error) {
	c.sentSeq++
	attrs := c.sentinel
	attrs.MED = c.sentSeq
	return c.sentSeq, c.peer.Send(&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{sentinelPrefix(c.member)}})
}

// waitSentinel blocks until the watched sentinel has been seen at seq.
func (c *bgpClient) waitSentinel(seq uint32) (time.Time, error) {
	var at time.Time
	if !waitUntil(&c.mu, c.cond, func() bool {
		if c.seen >= seq {
			at = c.at[seq]
		}
		return c.seen >= seq
	}) {
		return at, fmt.Errorf("%s: sentinel %d not seen within %v", c.id, seq, waitTimeout)
	}
	return at, nil
}

func (c *bgpClient) received() (msgs, nlri uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs, c.nlri
}

// routeServerSide is the BGP half shared by every control-plane workload:
// a listening speaker fronting a route-server engine, plus the two client
// sessions (one sender, one monitor).
type routeServerSide struct {
	speaker *bgp.Speaker
	fe      *routeserver.Frontend
	sender  *bgpClient
	monitor *bgpClient
}

func startRouteServer(rs *routeserver.Server, ex *workload.Exchange, sender, monitor int, configure func(*routeserver.Frontend)) (*routeServerSide, error) {
	r := &routeServerSide{}
	r.speaker = bgp.NewSpeaker(bgp.SessionConfig{
		LocalAS: 64999,
		LocalID: netip.AddrFrom4([4]byte{10, 255, 255, 254}),
	})
	r.fe = routeserver.NewFrontend(rs, r.speaker)
	if configure != nil {
		configure(r.fe)
	}
	for _, mi := range []int{sender, monitor} {
		m := ex.Members[mi]
		if err := r.fe.RegisterPeer(m.Ports[0].RouterIP, m.ID); err != nil {
			return nil, err
		}
	}
	addr, err := r.speaker.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if r.sender, err = dialClient(ex, sender, monitor, addr.String()); err != nil {
		r.close()
		return nil, err
	}
	if r.monitor, err = dialClient(ex, monitor, sender, addr.String()); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// fence returns once both sessions have decoded everything queued for them.
// Each side bumps its sentinel twice and the other waits for both: the
// frontend's emitter packs a drained batch by attribute group, so the first
// sentinel may be decoded ahead of other UPDATEs of its own batch; the second
// is only emitted once that batch has been written in full, and TCP keeps
// the order.
func (r *routeServerSide) fence() error {
	for _, pair := range [][2]*bgpClient{{r.sender, r.monitor}, {r.monitor, r.sender}} {
		for i := 0; i < 2; i++ {
			seq, err := pair[0].sendSentinel()
			if err != nil {
				return err
			}
			if _, err := pair[1].waitSentinel(seq); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *routeServerSide) close() {
	for _, c := range []*bgpClient{r.sender, r.monitor} {
		if c != nil {
			c.speaker.Close()
		}
	}
	r.speaker.Close()
}

// stack is the whole SDX, wired as the controller daemon wires it.
type stack struct {
	sz   sizes
	tr   *tracer
	ex   *workload.Exchange
	ctrl *core.Controller
	reg  *telemetry.Registry
	base *core.CompileResult // last committed full compilation

	*routeServerSide
	switches *core.SwitchServer
	sw       *dataplane.Switch
	of       *ofObserver
	ofLn     net.Listener
	ofWG     sync.WaitGroup
	egress   []uint16 // ports the switch emitted on since the last reset (probe oracle)

	// Glue state, written on the route server's session goroutines under
	// the frontend's change serialization and read by the driver.
	mu            sync.Mutex
	cond          *sync.Cond
	roots         map[uint32]int32 // sender sentinel seq -> root span of the operation it ends
	pushes        int              // OnPrefixes invocations
	rules         int              // fast-path rules produced
	newFECs       int              // fresh equivalence classes minted
	touched       int              // prefixes handed to OnPrefixes
	closing       bool             // teardown has begun: session-down flushes are not the workload's
	sentinelFence []int            // barrier index fencing the k-th sender-sentinel push
	recorded      []*core.FastPathResult
	glueErr       error
}

func newStack(sz sizes, tr *tracer) (*stack, error) {
	s := &stack{sz: sz, tr: tr, roots: make(map[uint32]int32)}
	s.cond = sync.NewCond(&s.mu)

	// Table load and initial compilation, as the daemon does from its
	// config file.
	rng := rand.New(rand.NewSource(topologySeed))
	s.ex = workload.GenerateExchange(rng, sz.participants, sz.prefixes)
	s.reg = telemetry.NewRegistry()
	opts := core.DefaultOptions()
	opts.Telemetry = s.reg
	s.ctrl = core.NewController(routeserver.New(nil), opts)
	if err := s.ex.Populate(s.ctrl); err != nil {
		return nil, err
	}
	if _, err := workload.InstallPolicies(rng, s.ex, s.ctrl, workload.DefaultPolicyMix()); err != nil {
		return nil, err
	}
	cid := tr.begin("core.compile", -1, -1)
	res, err := s.ctrl.Compile()
	tr.end(cid)
	if err != nil {
		return nil, err
	}

	// Fabric side: switch server, loopback OpenFlow channel, software switch.
	s.switches = core.NewSwitchServer(s.reg)
	s.switches.HandlePacketIn = s.ctrl.HandlePacketIn
	s.sw = dataplane.NewSwitch(1)
	for _, m := range s.ex.Members {
		for _, p := range m.Ports {
			port := p.Number
			s.sw.AttachPort(port, func([]byte) { s.egress = append(s.egress, port) })
		}
	}
	if s.ofLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	swConn, err := net.Dial("tcp", s.ofLn.Addr().String())
	if err != nil {
		s.close()
		return nil, err
	}
	ctlConn, err := s.ofLn.Accept()
	if err != nil {
		swConn.Close()
		s.close()
		return nil, err
	}
	s.of = newOFObserver(ctlConn, tr)
	s.ofWG.Add(2)
	go func() { defer s.ofWG.Done(); s.sw.ServeController(swConn) }()
	go func() { defer s.ofWG.Done(); s.switches.Serve(s.of) }()
	for deadline := time.Now().Add(waitTimeout); s.switches.Switches() == 0; {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("switch did not attach within %v", waitTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := s.setBase(res); err != nil {
		s.close()
		return nil, err
	}

	// Route-server side with the controller's two hooks.
	s.routeServerSide, err = startRouteServer(s.ctrl.RouteServer(), s.ex, senderMember, s.pickMonitor(), func(fe *routeserver.Frontend) {
		fe.NextHop = s.ctrl.NextHopFor
		fe.OnPrefixes = s.onPrefixes
	})
	if err != nil {
		s.close()
		return nil, err
	}
	// Sessions established means the initial table dumps have drained.
	if err := s.fence(); err != nil {
		s.close()
		return nil, err
	}
	return s, s.err()
}

// senderMember is the session every trace event is remapped onto: member 0,
// the largest announcer under the Zipf skew.
const senderMember = 0

// pickMonitor chooses the receive-only session: the smallest member with no
// policy of its own, so its traffic follows plain BGP best paths and the
// probe oracle can predict the egress participant from the route server.
func (s *stack) pickMonitor() int {
	for mi := len(s.ex.Members) - 1; mi > senderMember; mi-- {
		if p, ok := s.ctrl.Participant(s.ex.Members[mi].ID); ok && p.Inbound == nil && p.Outbound == nil {
			return mi
		}
	}
	return len(s.ex.Members) - 1
}

// onPrefixes is the controller daemon's two-stage reaction (its
// onRoutePrefixes), with the background stage left to the workload's clock.
func (s *stack) onPrefixes(prefixes []netip.Prefix) {
	// Sessions deliver in order, so every UPDATE handled before the k-th
	// sender sentinel belongs to the operation that sentinel ends.
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	burst := int32(len(s.sentinelFence) + 1)
	root, ok := s.roots[uint32(burst)]
	if !ok {
		root, burst = -1, -1
	}
	s.mu.Unlock()
	gid := s.tr.begin("glue.on_prefixes", root, burst)
	fid := s.tr.begin("core.fastreact", gid, burst)
	fast, err := s.ctrl.FastReact(prefixes)
	s.tr.end(fid)
	if err == nil {
		pid := s.tr.begin("core.push", gid, burst)
		err = s.switches.PushFastAll(fast)
		s.tr.end(pid)
	}
	fence := s.of.barriersSent()
	if s.tr != nil && err == nil {
		wid := s.tr.begin("openflow.barrier_wait", root, burst)
		s.of.notifyReply(fence, func() { s.tr.end(wid) })
	}
	s.mu.Lock()
	if err != nil {
		if s.glueErr == nil {
			s.glueErr = err
		}
		s.cond.Broadcast()
	} else {
		s.pushes++
		s.touched += len(prefixes)
		s.rules += len(fast.Rules)
		s.newFECs += len(fast.NewFECs)
		if s.tr != nil {
			s.recorded = append(s.recorded, fast)
		}
	}
	sentinel := sentinelPrefix(senderMember)
	for _, p := range prefixes {
		if p == sentinel {
			s.sentinelFence = append(s.sentinelFence, fence)
			s.cond.Broadcast()
			break
		}
	}
	s.mu.Unlock()
	s.tr.end(gid)
}

// beginOp opens the root span of the operation the sender's next sentinel
// will end, so the glue can hang its spans under it.
func (s *stack) beginOp(name string) int32 {
	if s.tr == nil {
		return -1
	}
	seq := s.sender.sentSeq + 1
	root := s.tr.begin(name, -1, int32(seq))
	s.mu.Lock()
	s.roots[seq] = root
	s.mu.Unlock()
	return root
}

func (s *stack) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.glueErr
}

// waitSentinelPush blocks until the glue has pushed the fast-path rules for
// the sender's k-th sentinel UPDATE and returns the barrier fencing them.
func (s *stack) waitSentinelPush(k int) (int, error) {
	var fence int
	var glueErr error
	if !waitUntil(&s.mu, s.cond, func() bool {
		glueErr = s.glueErr
		if len(s.sentinelFence) >= k {
			fence = s.sentinelFence[k-1]
		}
		return glueErr != nil || len(s.sentinelFence) >= k
	}) {
		return 0, fmt.Errorf("fast-path push for sentinel %d not seen within %v", k, waitTimeout)
	}
	return fence, glueErr
}

// converged blocks until the sender's sentinel seq has taken effect on both
// sides — its fast-path push acknowledged by the switch, and its
// re-advertisement decoded at the monitor — and returns the later instant.
func (s *stack) converged(seq uint32) (time.Time, error) {
	fence, err := s.waitSentinelPush(int(seq))
	if err != nil {
		return time.Time{}, err
	}
	forwarding, err := s.of.waitReply(fence)
	if err != nil {
		return time.Time{}, err
	}
	advertised, err := s.monitor.waitSentinel(seq)
	if err != nil {
		return time.Time{}, err
	}
	if advertised.After(forwarding) {
		return advertised, nil
	}
	return forwarding, nil
}

// setBase commits a full compilation to the switch and waits for its
// barrier: the daemon's recompile() minus the re-advertisement.
func (s *stack) setBase(res *core.CompileResult) error {
	pid := s.tr.begin("core.push", -1, -1)
	err := s.switches.SetBase(res)
	s.tr.end(pid)
	if err != nil {
		return err
	}
	wid := s.tr.begin("openflow.barrier_wait", -1, -1)
	_, err = s.of.waitReply(s.of.barriersSent())
	s.tr.end(wid)
	s.base = res
	return err
}

// background is the daemon's background stage (recompile): full
// recompilation, diff-push, re-advertise everything, and — because the
// workloads need a quiet system before the next timed operation — a fence.
func (s *stack) background() error {
	cid := s.tr.begin("core.compile", -1, -1)
	res, err := s.ctrl.Reoptimize()
	s.tr.end(cid)
	if err != nil {
		return err
	}
	if err := s.setBase(res); err != nil {
		return err
	}
	s.fe.ReadvertiseAll()
	return nil
}

func (s *stack) close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	if s.routeServerSide != nil {
		s.routeServerSide.close()
	}
	if s.ofLn != nil {
		s.ofLn.Close()
	}
	if s.of != nil {
		// Closing the controller side unwinds both serve loops.
		s.of.Close()
	}
	s.ofWG.Wait()
}
