package bgp

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sdx/internal/netutil"
)

// Peer is one established neighbor of a Speaker.
type Peer struct {
	Session *Session
	// In is the Adj-RIB-In: the routes this peer has advertised to us,
	// maintained by the Speaker as UPDATEs arrive.
	In *RIB

	speaker *Speaker
}

// Key returns the map key the Speaker files the peer under: its BGP
// identifier, which RFC 4271 requires to be unique among neighbors.
func (p *Peer) Key() string { return p.Session.PeerID().String() }

// Send advertises an UPDATE to this peer.
func (p *Peer) Send(u *Update) error { return p.Session.Send(u) }

// Speaker manages a set of BGP sessions sharing one local configuration:
// it accepts inbound connections, dials outbound ones, runs each session's
// receive loop, keeps per-peer Adj-RIB-Ins, and surfaces events through
// callbacks. Both the SDX route server and the participant border-router
// daemon are built on it.
type Speaker struct {
	Config SessionConfig

	// OnUpdate is invoked for every UPDATE after the peer's Adj-RIB-In has
	// been updated. Callbacks run on the session's goroutine.
	OnUpdate func(p *Peer, u *Update)
	// OnEstablished is invoked when a session reaches Established.
	OnEstablished func(p *Peer)
	// OnDown is invoked when a session ends; err is nil for a clean close.
	OnDown func(p *Peer, err error)

	// Dialer, when set, replaces net.Dial for outbound sessions (Dial and
	// persistent neighbors). The fault-injection tests cut sessions here.
	Dialer func(addr string) (net.Conn, error)
	// RedialMin/RedialMax bound the persistent neighbors' backoff schedule
	// (zero = netutil's defaults); RedialSeed seeds its jitter.
	RedialMin  time.Duration
	RedialMax  time.Duration
	RedialSeed int64
	// Logf, when set, receives one line per failed redial attempt and at
	// most one line per handshakeLogEvery for inbound handshakes that fail.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	peers     map[string]*Peer
	neighbors map[string]chan struct{} // addr -> stop channel
	closed    bool
	// closeSubcode is the RFC 4486 Cease subcode the teardown paths use
	// once the speaker is closing (0 for Close, CeaseAdminShutdown for
	// Shutdown); read by the redial stop watchers.
	closeSubcode uint8
	ln           net.Listener
	wg           sync.WaitGroup
	// Inbound handshake failures since the last logged one, and when that
	// was: any host that can reach the listener can fail handshakes.
	hsFailed  int
	hsLogNext time.Time
}

// handshakeLogEvery spaces the log lines for failed inbound handshakes.
const handshakeLogEvery = 10 * time.Second

// NewSpeaker returns a Speaker with the given local session configuration.
func NewSpeaker(cfg SessionConfig) *Speaker {
	return &Speaker{
		Config:    cfg,
		peers:     make(map[string]*Peer),
		neighbors: make(map[string]chan struct{}),
	}
}

// Listen starts accepting BGP connections on addr ("host:port"). It returns
// once the listener is bound; sessions are served on background goroutines.
func (s *Speaker) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.runConn(conn)
			}()
		}
	}()
	return ln.Addr(), nil
}

// Dial connects to a neighbor and completes the handshake, returning the
// established peer. The session's receive loop runs in the background. The
// session is one-shot: when it dies it stays dead. Neighbors that should
// survive session failure belong in AddNeighbor instead.
func (s *Speaker) Dial(addr string) (*Peer, error) {
	conn, err := s.dial(addr)
	if err != nil {
		return nil, err
	}
	sess := NewSession(conn, s.Config)
	if err := sess.Handshake(); err != nil {
		return nil, err
	}
	p := s.addPeer(sess)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.servePeer(p)
	}()
	return p, nil
}

func (s *Speaker) dial(addr string) (net.Conn, error) {
	if s.Dialer != nil {
		return s.Dialer(addr)
	}
	return net.Dial("tcp", addr)
}

// AddNeighbor registers addr as a persistent neighbor: a background
// goroutine dials it, serves the session, and on session death redials
// with exponential backoff and jitter until the neighbor is removed or the
// speaker closed. Session lifecycle is surfaced through the usual
// OnEstablished/OnDown callbacks; a successful establishment resets the
// backoff ramp.
func (s *Speaker) AddNeighbor(addr string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("bgp: speaker closed")
	}
	if _, dup := s.neighbors[addr]; dup {
		s.mu.Unlock()
		return fmt.Errorf("bgp: neighbor %s already configured", addr)
	}
	stop := make(chan struct{})
	s.neighbors[addr] = stop
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.redialLoop(addr, stop)
	}()
	return nil
}

// RemoveNeighbor stops redialing addr and closes its live session, if any.
func (s *Speaker) RemoveNeighbor(addr string) {
	s.mu.Lock()
	stop, ok := s.neighbors[addr]
	if ok {
		delete(s.neighbors, addr)
	}
	s.mu.Unlock()
	if ok {
		close(stop)
	}
}

// redialLoop keeps one persistent neighbor connected. It owns the backoff
// schedule; the session itself is served synchronously so a redial can only
// begin after the previous session has fully torn down.
func (s *Speaker) redialLoop(addr string, stop <-chan struct{}) {
	bo := &netutil.Backoff{Min: s.RedialMin, Max: s.RedialMax, Seed: s.RedialSeed}
	for {
		select {
		case <-stop:
			return
		default:
		}
		s.Config.Metrics.redialAttempt()
		conn, err := s.dial(addr)
		if err == nil {
			sess := NewSession(conn, s.Config)
			if err = sess.Handshake(); err == nil {
				bo.Reset()
				s.Config.Metrics.setRedialBackoff(0)
				s.Config.Metrics.redialEstablished()
				p := s.addPeer(sess)
				done := make(chan struct{})
				go func() {
					select {
					case <-stop:
						sess.CloseCease(s.stopSubcode())
					case <-done:
					}
				}()
				s.servePeer(p)
				close(done)
			}
		}
		d := bo.Next()
		s.Config.Metrics.setRedialBackoff(d)
		if err != nil {
			s.Config.Metrics.redialFailed()
			s.logf("bgp: redial %s: %v (next attempt in %v)", addr, err, d)
		}
		select {
		case <-stop:
			return
		case <-time.After(d):
		}
	}
}

func (s *Speaker) runConn(conn net.Conn) {
	sess := NewSession(conn, s.Config)
	if err := sess.Handshake(); err != nil {
		s.handshakeFailed(conn.RemoteAddr(), err)
		return
	}
	s.servePeer(s.addPeer(sess))
}

// handshakeFailed counts a failed inbound handshake and logs it, with the
// number of failures since the previous line, unless a line was written
// less than handshakeLogEvery ago.
func (s *Speaker) handshakeFailed(from net.Addr, err error) {
	s.Config.Metrics.handshakeFailed()
	s.mu.Lock()
	s.hsFailed++
	now := time.Now()
	n := s.hsFailed
	if now.Before(s.hsLogNext) {
		s.mu.Unlock()
		return
	}
	s.hsFailed, s.hsLogNext = 0, now.Add(handshakeLogEvery)
	s.mu.Unlock()
	s.logf("bgp: handshake from %v: %v (%d inbound handshake failures since the last line)", from, err, n)
}

func (s *Speaker) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Speaker) addPeer(sess *Session) *Peer {
	p := &Peer{Session: sess, In: NewRIB(), speaker: s}
	s.mu.Lock()
	displaced := s.peers[p.Key()]
	s.peers[p.Key()] = p
	closed, subcode := s.closed, s.closeSubcode
	s.mu.Unlock()
	// A handshake that finished after Close took its snapshot of the peers
	// would otherwise leave a session nobody closes, and Close waiting on it.
	if closed {
		sess.CloseCease(subcode)
	}
	// A second session from the same BGP identifier is a reconnect: the
	// fresh session wins, and the stale one is closed so its hold timer
	// does not keep it half-alive alongside its replacement.
	if displaced != nil {
		displaced.Session.Close()
	}
	if s.OnEstablished != nil {
		s.OnEstablished(p)
	}
	return p
}

func (s *Speaker) servePeer(p *Peer) {
	err := p.Session.Run(func(u *Update) {
		s.applyUpdate(p, u)
		if s.OnUpdate != nil {
			s.OnUpdate(p, u)
		}
	})
	s.mu.Lock()
	// Delete only if the map still points at p: a reconnected peer (same
	// BGP ID) may already have replaced this entry, and unconditionally
	// deleting would tear the live replacement out from under it.
	if s.peers[p.Key()] == p {
		delete(s.peers, p.Key())
	}
	s.mu.Unlock()
	if s.OnDown != nil {
		s.OnDown(p, err)
	}
}

func (s *Speaker) applyUpdate(p *Peer, u *Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range u.Withdrawn {
		p.In.Remove(w)
	}
	// One UPDATE carries one attribute set for all its NLRI; intern it once
	// so the routes share a single canonical pointer.
	var attrs *PathAttrs
	if len(u.NLRI) > 0 {
		attrs = Intern(u.Attrs)
	}
	for _, nlri := range u.NLRI {
		p.In.Set(Route{
			Prefix: nlri,
			Attrs:  attrs,
			PeerAS: p.Session.PeerAS(),
			PeerID: p.Session.PeerID(),
		})
	}
}

// Peer returns the established peer with the given BGP identifier.
func (s *Speaker) Peer(id string) (*Peer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.peers[id]
	return p, ok
}

// Peers returns a snapshot of the established peers.
func (s *Speaker) Peers() []*Peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, p)
	}
	return out
}

// Broadcast sends an UPDATE to every established peer, returning the first
// error encountered (other peers are still attempted).
func (s *Speaker) Broadcast(u *Update) error {
	var first error
	for _, p := range s.Peers() {
		if err := p.Send(u); err != nil && first == nil {
			first = fmt.Errorf("bgp: broadcast to %s: %w", p.Key(), err)
		}
	}
	return first
}

// Close shuts down the listener, the persistent-neighbor redial loops, and
// all sessions (CEASE, unspecified subcode), and waits for their goroutines
// to finish. Daemons ending on an operator's signal should use Shutdown,
// which tells peers why.
func (s *Speaker) Close() { s.closeCease(0) }

// Shutdown is the graceful variant of Close: every established session is
// torn down with CEASE / Administrative Shutdown (RFC 4486 subcode 2), so
// peers withdraw our routes immediately instead of waiting out hold timers.
func (s *Speaker) Shutdown() { s.closeCease(CeaseAdminShutdown) }

// stopSubcode returns the Cease subcode teardown paths should use.
func (s *Speaker) stopSubcode() uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeSubcode
}

func (s *Speaker) closeCease(subcode uint8) {
	s.mu.Lock()
	s.closed = true
	s.closeSubcode = subcode
	ln := s.ln
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	stops := make([]chan struct{}, 0, len(s.neighbors))
	for _, stop := range s.neighbors {
		stops = append(stops, stop)
	}
	s.neighbors = make(map[string]chan struct{})
	s.mu.Unlock()
	for _, stop := range stops {
		close(stop)
	}
	if ln != nil {
		ln.Close()
	}
	for _, p := range peers {
		p.Session.CloseCease(subcode)
	}
	s.wg.Wait()
}
