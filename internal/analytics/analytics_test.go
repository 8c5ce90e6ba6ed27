package analytics

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"sdx/internal/dataplane"
	"sdx/internal/flowexport"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

func addr4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// Under capacity, space-saving is exact: every count right, zero error.
func TestTopKExactUnderCapacity(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 5; i++ {
		for n := 0; n <= i; n++ {
			tk.Offer(addr4(10, 0, 0, byte(i)), 100)
		}
	}
	top := tk.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d", len(top))
	}
	want := []Estimate{
		{Key: addr4(10, 0, 0, 4), Count: 500},
		{Key: addr4(10, 0, 0, 3), Count: 400},
		{Key: addr4(10, 0, 0, 2), Count: 300},
	}
	for i, w := range want {
		if top[i] != w {
			t.Errorf("top[%d] = %+v, want %+v", i, top[i], w)
		}
	}
}

// Over capacity, the heavy keys survive eviction pressure and the error
// bound W/capacity holds for every reported counter.
func TestTopKHeavyHittersSurvive(t *testing.T) {
	const capacity = 64
	tk := NewTopK(capacity)
	var total uint64
	// 8 elephants interleaved with 10k one-shot mice.
	for round := 0; round < 100; round++ {
		for e := 0; e < 8; e++ {
			tk.Offer(addr4(1, 1, 1, byte(e)), 10000)
			total += 10000
		}
		for m := 0; m < 100; m++ {
			i := round*100 + m
			tk.Offer(addr4(9, byte(i>>16), byte(i>>8), byte(i)), 1)
			total++
		}
	}
	bound := total / capacity
	top := tk.Top(8)
	seen := map[netip.Addr]bool{}
	for _, e := range top {
		seen[e.Key] = true
		if e.Err > bound {
			t.Errorf("estimate %v error %d exceeds bound %d", e.Key, e.Err, bound)
		}
		if e.Count < 1000000 || e.Count-e.Err > 1000000 {
			t.Errorf("estimate %v = %d (err %d) not bracketing true 1000000", e.Key, e.Count, e.Err)
		}
	}
	for e := 0; e < 8; e++ {
		if !seen[addr4(1, 1, 1, byte(e))] {
			t.Errorf("elephant %d missing from top-8: %+v", e, top)
		}
	}
}

func TestStoreQueriesScaleBySampleRate(t *testing.T) {
	s := New(Config{SampleRate: 16, Window: time.Hour})
	rec := func(src netip.Addr, cookie uint64, bytes uint32, drop flowexport.DropReason, inPort uint16) flowexport.Record {
		return flowexport.Record{SrcIP: src, DstIP: addr4(99, 0, 0, 1), Proto: 17,
			Cookie: cookie, Bytes: bytes, Drop: drop, InPort: inPort}
	}
	for i := 0; i < 10; i++ {
		s.Ingest(rec(addr4(10, 0, 0, 1), 7, 100, flowexport.DropNone, 1))
	}
	for i := 0; i < 4; i++ {
		s.Ingest(rec(addr4(10, 0, 0, 2), 8, 200, flowexport.DropNone, 2))
	}
	s.Ingest(rec(addr4(10, 0, 0, 3), 0, 50, flowexport.DropNoPort, 3))

	talkers := s.TopTalkers(10)
	if len(talkers) != 3 {
		t.Fatalf("talkers = %+v, want 3 (dropped traffic still counts toward its source)", talkers)
	}
	if talkers[0].SrcIP != addr4(10, 0, 0, 1) || talkers[0].Bytes != 10*100*16 {
		t.Errorf("talker[0] = %+v, want 10.0.0.1 @ %d", talkers[0], 10*100*16)
	}
	pol := s.Policies()
	if len(pol) != 2 || pol[0].Cookie != 7 || pol[0].Packets != 10*16 || pol[1].Packets != 4*16 {
		t.Errorf("policies = %+v", pol)
	}
	drops := s.Drops()
	if len(drops) != 1 || drops[0].Reason != "no_port" || drops[0].InPort != 3 ||
		drops[0].Packets != 16 || drops[0].Bytes != 50*16 {
		t.Errorf("drops = %+v", drops)
	}
	if s.Records() != 15 {
		t.Errorf("records = %d, want 15", s.Records())
	}
}

// A switch's sampled records reach the store with their attribution intact:
// a forwarded frame counts toward its rule's cookie, and a frame the switch
// drops counts toward the drop reason on its ingress port.
func TestSwitchSamplesReachStore(t *testing.T) {
	sw := dataplane.NewSwitch(1)
	for _, p := range []uint16{1, 2, 3} {
		sw.AttachPort(p, func([]byte) {})
	}
	sw.Table.Add(&dataplane.FlowEntry{
		Match: policy.MatchAll.Port(1), Priority: 10, Cookie: 0xAA,
		Actions: []openflow.Action{openflow.Output(2)},
	})
	sw.Table.Add(&dataplane.FlowEntry{
		Match: policy.MatchAll.Port(2), Priority: 10, Cookie: 0xBB,
		Actions: []openflow.Action{openflow.Output(999)}, // unattached: no_port
	})
	// Port 3 has no rule and there is no controller: no_match.
	ex := flowexport.New(1, 64)
	sw.SetFlowExporter(ex)
	s := New(Config{SampleRate: 1, Window: time.Hour})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { s.Run(ex.Records(), stop); close(done) }()

	frame := packet.NewUDP(
		netutil.MustParseMAC("02:00:00:00:00:01"), netutil.MustParseMAC("02:00:00:00:00:02"),
		addr4(10, 0, 0, 1), addr4(20, 0, 0, 1), 4000, 80, []byte("x")).Serialize()
	for port, n := range map[uint16]int{1: 3, 2: 2, 3: 1} {
		for i := 0; i < n; i++ {
			if err := sw.Inject(port, frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	<-done

	pol := s.Policies()
	if len(pol) != 1 || pol[0].Cookie != 0xAA || pol[0].Packets != 3 {
		t.Errorf("policies = %+v, want cookie 0xAA with 3 packets", pol)
	}
	drops := map[string]DropStat{}
	for _, d := range s.Drops() {
		drops[d.Reason] = d
	}
	if d := drops["no_port"]; len(drops) != 2 || d.InPort != 2 || d.Packets != 2 {
		t.Errorf("drops = %+v, want no_port on port 2 x2 and no_match on port 3 x1", drops)
	}
	if d := drops["no_match"]; d.InPort != 3 || d.Packets != 1 {
		t.Errorf("no_match drop = %+v, want port 3 x1", d)
	}
}

// Buckets roll with the clock; queries aggregate the live ring, and the
// ring wraps (oldest window overwritten) without corrupting newer data.
func TestStoreBucketRollover(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{Window: time.Second, Buckets: 2, Now: func() time.Time { return now }})
	r := flowexport.Record{SrcIP: addr4(1, 0, 0, 1), Cookie: 1, Bytes: 10}
	s.Ingest(r)
	now = now.Add(time.Second) // roll into bucket 2
	s.Ingest(r)
	if got := s.Policies()[0].Packets; got != 2 {
		t.Fatalf("both live buckets should aggregate: %d", got)
	}
	now = now.Add(time.Second) // wraps, overwriting the first bucket
	s.Ingest(r)
	if got := s.Policies()[0].Packets; got != 2 {
		t.Fatalf("after wrap: %d packets, want 2 (oldest window evicted)", got)
	}
}

// Run drains the exporter channel until stop, then flushes what remains —
// records exported before stop must not be lost.
func TestStoreRunDrainsOnStop(t *testing.T) {
	ex := flowexport.New(1, 128)
	s := New(Config{Window: time.Hour})
	for i := 0; i < 100; i++ {
		ex.Export(flowexport.Record{SrcIP: addr4(5, 0, 0, 1), Bytes: 1})
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		s.Run(ex.Records(), stop)
		close(done)
	}()
	close(stop)
	<-done
	if got := s.Records(); got != 100 {
		t.Fatalf("ingested %d records, want all 100 (stop must drain)", got)
	}
}

func TestStoreConcurrentIngest(t *testing.T) {
	s := New(Config{Window: time.Hour})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Ingest(flowexport.Record{
					SrcIP: addr4(10, byte(w), byte(i>>8), byte(i)), Cookie: uint64(w), Bytes: 64})
			}
		}(w)
	}
	wg.Wait()
	if got := s.Records(); got != 8000 {
		t.Fatalf("records = %d, want 8000", got)
	}
	var pkts uint64
	for _, p := range s.Policies() {
		pkts += p.Packets
	}
	if pkts != 8000 {
		t.Fatalf("policy packets = %d, want 8000", pkts)
	}
}

// The query API rides the telemetry mux via Mount and serves the snapshot.
func TestFlowsEndpoint(t *testing.T) {
	s := New(Config{SampleRate: 4, Window: time.Hour})
	s.Ingest(flowexport.Record{SrcIP: addr4(10, 0, 0, 9), Cookie: 3, Bytes: 100})
	s.Ingest(flowexport.Record{SrcIP: addr4(10, 0, 0, 9), Drop: flowexport.DropCtrlDown, InPort: 2, Bytes: 60})

	reg := telemetry.NewRegistry()
	s.EnableTelemetry(reg)
	h := telemetry.Handler(reg, nil, telemetry.Mount{Pattern: "/debug/sdx/flows", Handler: s.Handler()})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/sdx/flows?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap FlowsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SampleRate != 4 || snap.Records != 2 {
		t.Errorf("snapshot meta wrong: %+v", snap)
	}
	if len(snap.TopTalkers) != 1 || snap.TopTalkers[0].Bytes != (100+60)*4 {
		t.Errorf("talkers = %+v", snap.TopTalkers)
	}
	if len(snap.Drops) != 1 || snap.Drops[0].Reason != "ctrl_down" || snap.Drops[0].InPort != 2 {
		t.Errorf("drops = %+v", snap.Drops)
	}

	// The metrics endpoint still works alongside the mount.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "sdx_analytics_records_total 2") {
		t.Errorf("metrics missing analytics counter:\n%s", body)
	}
}
