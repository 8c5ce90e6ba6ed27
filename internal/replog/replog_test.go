package replog

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/faultnet"
)

func testUpdate(i int) *bgp.Update {
	return &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65000 + uint32(i%5)}}},
			NextHop: netip.MustParseAddr("10.0.0.1"),
			MED:     uint32(i),
			HasMED:  true,
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	entries := []*Entry{
		{Seq: 1, Kind: KindUpdate, From: "A", PeerAS: 65001,
			PeerID: netip.MustParseAddr("172.0.0.1"), Update: testUpdate(7)},
		{Seq: 2, Kind: KindFlush, From: "B"},
		{Seq: 3, Kind: KindMark},
	}
	for _, e := range entries {
		b, err := e.Encode()
		if err != nil {
			t.Fatalf("encode seq %d: %v", e.Seq, err)
		}
		got, err := DecodeEntry(b)
		if err != nil {
			t.Fatalf("decode seq %d: %v", e.Seq, err)
		}
		if got.Seq != e.Seq || got.Kind != e.Kind || got.From != e.From || got.PeerAS != e.PeerAS {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, e)
		}
		if (e.Update == nil) != (got.Update == nil) {
			t.Fatalf("seq %d: update presence mismatch", e.Seq)
		}
		if e.Update != nil {
			want, _ := bgp.MarshalAS4(e.Update)
			have, _ := bgp.MarshalAS4(got.Update)
			if string(want) != string(have) {
				t.Fatalf("seq %d: update bytes differ", e.Seq)
			}
		}
	}
}

func TestDecodeEntryRejectsGarbage(t *testing.T) {
	if _, err := DecodeEntry(nil); err == nil {
		t.Fatal("decoded empty payload")
	}
	if _, err := DecodeEntry(make([]byte, 18)); err == nil {
		t.Fatal("decoded truncated header")
	}
	e := &Entry{Seq: 1, Kind: KindUpdate, From: "A", Update: testUpdate(1)}
	b, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(b[:len(b)-3]); err == nil {
		t.Fatal("decoded entry with truncated update body")
	}
}

func TestLogSequencesAndBlocks(t *testing.T) {
	l := NewLog()
	if seq := l.Append(&Entry{Kind: KindMark}); seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	if seq := l.Append(&Entry{Kind: KindFlush, From: "A"}); seq != 2 {
		t.Fatalf("second seq = %d, want 2", seq)
	}

	// A reader blocked past the head wakes when the entry lands.
	got := make(chan *Entry, 1)
	go func() {
		e, err := l.WaitFor(3)
		if err != nil {
			t.Errorf("WaitFor(3): %v", err)
		}
		got <- e
	}()
	time.Sleep(10 * time.Millisecond)
	l.Append(&Entry{Kind: KindUpdate, From: "B", PeerAS: 65002, PeerID: netip.MustParseAddr("172.0.0.2"), Update: testUpdate(3)})
	select {
	case e := <-got:
		if e.Seq != 3 || e.From != "B" {
			t.Fatalf("blocked reader got %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked reader never woke")
	}

	l.Close()
	if _, err := l.WaitFor(10); err == nil {
		t.Fatal("WaitFor past head succeeded on closed log")
	}
	if seq := l.Append(&Entry{Kind: KindMark}); seq != 0 {
		t.Fatalf("append to closed log returned seq %d", seq)
	}
}

// TestConsumerResumesAfterSever replays a log over real TCP, severs the
// consumer's connection mid-stream, and checks that the redial resumes from
// the last applied sequence number and applies every entry exactly once.
func TestConsumerResumesAfterSever(t *testing.T) {
	l := NewLog()
	const total = 200
	for i := 0; i < total/2; i++ {
		l.Append(&Entry{Kind: KindUpdate, From: "A", PeerAS: 65001, PeerID: netip.MustParseAddr("172.0.0.1"), Update: testUpdate(i)})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &StreamServer{Log: l, Logf: t.Logf}
	go srv.Serve(ln)

	// Sever the first connection after a few KB so the consumer is forced
	// to resume mid-log.
	// Sever only the first connection; the resume dials run clean.
	dialer := &faultnet.Dialer{}
	dialer.Arm = func(fc *faultnet.Conn) {
		if dialer.Dials() == 0 {
			fc.SeverAfterBytes(4096, -1)
		}
	}

	var mu sync.Mutex
	var seen []uint64
	c := &Consumer{
		Addr: ln.Addr().String(),
		Dial: dialer.Dial,
		Apply: func(e *Entry) error {
			mu.Lock()
			seen = append(seen, e.Seq)
			mu.Unlock()
			return nil
		},
		MinBackoff: time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		Logf:       t.Logf,
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- c.Run(stop) }()

	// Keep appending while the consumer churns through the sever.
	for i := total / 2; i < total; i++ {
		l.Append(&Entry{Kind: KindUpdate, From: "A", PeerAS: 65001, PeerID: netip.MustParseAddr("172.0.0.1"), Update: testUpdate(i)})
		time.Sleep(100 * time.Microsecond)
	}

	deadline := time.Now().Add(10 * time.Second)
	for c.Applied() < total {
		if time.Now().After(deadline) {
			t.Fatalf("consumer stuck at seq %d of %d", c.Applied(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("consumer run: %v", err)
	}

	if c.Dials() < 2 {
		t.Fatalf("expected a resume dial, got %d dials", c.Dials())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != total {
		t.Fatalf("applied %d entries, want %d", len(seen), total)
	}
	for i, seq := range seen {
		if seq != uint64(i+1) {
			t.Fatalf("entry %d applied out of order or twice: seq %d", i, seq)
		}
	}
	if c.Lag() != 0 {
		t.Fatalf("lag = %d after drain", c.Lag())
	}
}
