// Package replog implements the sequenced, replicated input log that fans
// one controller's input stream out to its followers.
//
// The design leans on PR 5's determinism guarantee: applying an entry is a
// pure function of the entry sequence, so any replica that applies the same
// entries in the same order reaches byte-identical engine state. The log
// therefore carries *inputs* (the UPDATE wire bytes plus the session
// identity the leader learned them from), never derived state. Entries
// are assigned monotonically increasing sequence numbers at append time;
// consumers resume from any sequence number after a reconnect (stream.go).
//
// The leader's routeserver.Frontend applies exactly these entries itself —
// it builds one for every input, appends it here, and runs it through the
// same apply a follower runs — so the three kinds are everything that
// changes routing state:
//
//   - KindUpdate: one BGP UPDATE from one participant session (or one
//     route the SDX originates on a participant's behalf).
//   - KindFlush: a participant's session died; flush its routes.
//   - KindMark: a compile point. Virtual next-hop assignment is
//     history-dependent (pool order), so replicated controllers must run
//     Compile at identical logical positions in the stream; the leader
//     sequences a mark wherever it recompiles.
package replog

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/telemetry"
)

// Entry kinds.
const (
	KindUpdate = 1 // a BGP UPDATE received from a participant session
	KindFlush  = 2 // the participant's session went down: flush its routes
	KindMark   = 3 // a compile point for replicated controllers
)

// Entry is one sequenced event in the replicated log.
type Entry struct {
	// Seq is the entry's position in the log, 1-based and contiguous.
	Seq uint64
	// Kind is one of KindUpdate, KindFlush, KindMark.
	Kind uint8
	// From is the participant the frontend attributed the event to
	// (empty for KindMark).
	From string
	// PeerAS and PeerID are the BGP session identity the UPDATE arrived
	// on, stamped into the bgp.Route every replica applies.
	PeerAS uint32
	PeerID netip.Addr
	// Update is the UPDATE body (KindUpdate only).
	Update *bgp.Update
}

// Encode renders the entry payload (without any stream framing):
//
//	kind(1) seq(8) peerAS(4) peerID(4) fromLen(2) from... update-wire...
//
// The update is the full RFC 4271 message rendered with 4-octet AS_PATH
// segments (the log is an internal channel, so the as4 form is
// unconditional). Kinds without an UPDATE carry no trailing bytes.
func (e *Entry) Encode() ([]byte, error) {
	if len(e.From) > 0xffff {
		return nil, fmt.Errorf("replog: participant id %q too long", e.From)
	}
	b := make([]byte, 0, 19+len(e.From))
	b = append(b, e.Kind)
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = binary.BigEndian.AppendUint32(b, e.PeerAS)
	var id [4]byte
	if e.PeerID.Is4() {
		id = e.PeerID.As4()
	}
	b = append(b, id[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.From)))
	b = append(b, e.From...)
	if e.Update != nil {
		wire, err := bgp.MarshalAS4(e.Update)
		if err != nil {
			return nil, fmt.Errorf("replog: marshaling update: %w", err)
		}
		b = append(b, wire...)
	}
	return b, nil
}

// DecodeEntry parses a payload produced by Encode.
func DecodeEntry(b []byte) (*Entry, error) {
	if len(b) < 19 {
		return nil, fmt.Errorf("replog: entry truncated (%d bytes)", len(b))
	}
	e := &Entry{
		Kind:   b[0],
		Seq:    binary.BigEndian.Uint64(b[1:9]),
		PeerAS: binary.BigEndian.Uint32(b[9:13]),
	}
	var id [4]byte
	copy(id[:], b[13:17])
	e.PeerID = netip.AddrFrom4(id)
	fromLen := int(binary.BigEndian.Uint16(b[17:19]))
	if len(b) < 19+fromLen {
		return nil, fmt.Errorf("replog: entry from-field truncated")
	}
	e.From = string(b[19 : 19+fromLen])
	rest := b[19+fromLen:]
	if len(rest) > 0 {
		msg, err := bgp.DecodeAS4(rest)
		if err != nil {
			return nil, fmt.Errorf("replog: decoding update: %w", err)
		}
		u, ok := msg.(*bgp.Update)
		if !ok {
			return nil, fmt.Errorf("replog: entry carries %v, want UPDATE", msg.Type())
		}
		e.Update = u
	}
	if e.Kind == KindUpdate && e.Update == nil {
		return nil, fmt.Errorf("replog: update entry without update body")
	}
	return e, nil
}

// Log is the in-memory append-only sequenced log. Appends assign
// contiguous sequence numbers starting at 1; readers block in WaitFor
// until the requested entry exists. The log retains every entry; a bounded
// retention window with snapshot-assisted catch-up is headroom, not a
// correctness requirement.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries []*Entry
	closed  bool

	mAppends telemetry.Counter
}

// NewLog returns an empty log.
func NewLog() *Log {
	l := &Log{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Append assigns the next sequence number to e, stores it, and wakes
// blocked readers. It returns the assigned sequence number; appending to a
// closed log returns 0.
func (l *Log) Append(e *Entry) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0
	}
	e.Seq = uint64(len(l.entries)) + 1
	l.entries = append(l.entries, e)
	l.mAppends.Inc()
	l.cond.Broadcast()
	return e.Seq
}

// Head returns the highest assigned sequence number (0 when empty).
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.entries))
}

// Get returns the entry with the given sequence number if it exists.
func (l *Log) Get(seq uint64) (*Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == 0 || seq > uint64(len(l.entries)) {
		return nil, false
	}
	return l.entries[seq-1], true
}

// WaitFor blocks until the entry with the given sequence number exists and
// returns it, or returns an error once the log is closed and will never
// reach seq.
func (l *Log) WaitFor(seq uint64) (*Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for seq == 0 || seq > uint64(len(l.entries)) {
		if l.closed {
			return nil, fmt.Errorf("replog: log closed before seq %d", seq)
		}
		l.cond.Wait()
	}
	return l.entries[seq-1], nil
}

// Close marks the log finished: pending and future WaitFor calls for
// unwritten sequence numbers return an error, and stream servers drain
// their tails and hang up.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}

// EnableTelemetry registers the log's metrics with reg. A nil registry is
// a no-op.
func (l *Log) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sdx_replog_appends_total",
		"Entries appended to the replicated UPDATE log.",
		func() float64 { return float64(l.mAppends.Value()) })
	reg.GaugeFunc("sdx_replog_head_seq",
		"Highest sequence number assigned in the replicated UPDATE log.",
		func() float64 { return float64(l.Head()) })
}
