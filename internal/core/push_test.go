package core

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sdx/internal/openflow"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// writeLog is a net.Conn that records the bytes of every Write call.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), b...))
	w.mu.Unlock()
	return w.Conn.Write(b)
}

func (w *writeLog) log() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.writes...)
}

// splitMessages frames a written buffer into its messages.
func splitMessages(t *testing.T, b []byte) []*openflow.Message {
	t.Helper()
	var out []*openflow.Message
	r := bytes.NewReader(b)
	for r.Len() > 0 {
		m, err := openflow.ReadMessage(r)
		if err != nil {
			t.Fatalf("framing a written buffer: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// checkPush asserts that one write is exactly the bytes the per-message
// path sent for a push: the wildcard wipe when asked, then every add in
// order, then one strict delete per stale key (in any order), then the
// barrier, each encoded alone with consecutive xids. With ordered false the
// adds may come in any order too (a resync replays a map).
func checkPush(t *testing.T, step string, write []byte, wipe bool, adds []*openflow.FlowMod, ordered bool, stale map[flowKey]bool) {
	t.Helper()
	msgs := splitMessages(t, write)
	want := len(adds) + len(stale) + 1
	if wipe {
		want++
	}
	if len(msgs) != want {
		t.Fatalf("%s: the write holds %d messages, want %d", step, len(msgs), want)
	}
	var perMessage []byte
	xid := msgs[0].XID
	i := 0
	next := func() *openflow.FlowMod {
		m := msgs[i]
		if m.XID != xid+uint32(i) {
			t.Fatalf("%s: message %d has xid %d, want %d", step, i, m.XID, xid+uint32(i))
		}
		fm, err := m.DecodeFlowMod()
		if err != nil {
			t.Fatalf("%s: message %d: %v", step, i, err)
		}
		perMessage = append(perMessage, openflow.EncodeFlowMod(fm, m.XID)...)
		i++
		return fm
	}
	if wipe {
		if fm := next(); fm.Command != openflow.FlowModDelete || fm.Match.ToPolicy() != policy.MatchAll {
			t.Fatalf("%s: first message is %+v, want the wildcard delete", step, fm)
		}
	}
	wantAdds := make(map[string]bool, len(adds))
	for _, fm := range adds {
		wantAdds[string(openflow.EncodeFlowMod(fm, 0))] = true
	}
	for k := range adds {
		fm := next()
		got := string(openflow.EncodeFlowMod(fm, 0))
		if ordered && got != string(openflow.EncodeFlowMod(adds[k], 0)) || !wantAdds[got] {
			t.Fatalf("%s: add %d is %+v, want %+v", step, k, fm, adds[k])
		}
	}
	seen := make(map[flowKey]bool, len(stale))
	for range stale {
		fm := next()
		k := keyOf(fm)
		if fm.Command != openflow.FlowModDeleteStrict || !stale[k] || seen[k] {
			t.Fatalf("%s: delete %+v is not a strict delete of a stale entry", step, fm)
		}
		seen[k] = true
	}
	if m := msgs[i]; m.Type != openflow.TypeBarrierRequest || m.XID != xid+uint32(i) {
		t.Fatalf("%s: last message is %v xid %d, want BARRIER_REQUEST xid %d", step, m.Type, m.XID, xid+uint32(i))
	}
	barrier, err := openflow.Encode(openflow.TypeBarrierRequest, msgs[i].XID, nil)
	if err != nil {
		t.Fatal(err)
	}
	perMessage = append(perMessage, barrier...)
	if !bytes.Equal(write, perMessage) {
		t.Fatalf("%s: the write differs from the per-message encodings", step)
	}
}

// TestPushOneWritePerPush: SetBase (the first, wiping, and a later diff),
// PushFastAll and a reattaching switch's resync each reach the switch as
// one write holding exactly the messages the per-message path sent, and the
// per-type out-counters count every message in them.
func TestPushOneWritePerPush(t *testing.T) {
	c := figure1(t, DefaultOptions())
	r1, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := NewSwitchServer(nil)
	srv.Metrics = openflow.NewMetrics(reg)
	var logs []*writeLog
	attach := func() {
		t.Helper()
		ctrlSide, swSide := netPipe(t)
		wl := &writeLog{Conn: ctrlSide}
		logs = append(logs, wl)
		go chaosSwitch(uint64(len(logs))).ServeController(swSide)
		go srv.Serve(wl)
		deadline := time.Now().Add(5 * time.Second)
		for srv.Switches() < len(logs) {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the switch to attach")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// pushed returns the one write a push made on the first switch's
	// channel since the previous call.
	var done int
	pushed := func(step string) []byte {
		t.Helper()
		w := logs[0].log()[done:]
		done += len(w)
		if len(w) != 1 {
			t.Fatalf("%s: %d writes, want 1", step, len(w))
		}
		return w[0]
	}
	lower := func(rules []*openflow.FlowMod, err error) []*openflow.FlowMod {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rules
	}

	attach()
	done = len(logs[0].log()) // the handshake: HELLO, FEATURES_REQUEST
	base1 := lower(FlowModsForRules(r1.Rules, fastPriority-1))
	if err := srv.SetBase(r1); err != nil {
		t.Fatal(err)
	}
	checkPush(t, "SetBase(r1)", pushed("SetBase(r1)"), true, base1, true, nil)

	touched, err := c.RouteServer().Withdraw("C", p1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.FastReact(touched)
	if err != nil {
		t.Fatal(err)
	}
	fastFms := lower(FlowModsForRules(fast.Rules, fastTop))
	if err := srv.PushFastAll(fast); err != nil {
		t.Fatal(err)
	}
	checkPush(t, "PushFastAll", pushed("PushFastAll"), false, fastFms, true, nil)

	r2, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base2 := lower(FlowModsForRules(r2.Rules, fastPriority-1))
	stale := make(map[flowKey]bool)
	for _, fm := range append(append([]*openflow.FlowMod(nil), base1...), fastFms...) {
		stale[keyOf(fm)] = true
	}
	for _, fm := range base2 {
		delete(stale, keyOf(fm))
	}
	if len(stale) == 0 {
		t.Fatal("the recompilation deletes nothing")
	}
	if err := srv.SetBase(r2); err != nil {
		t.Fatal(err)
	}
	checkPush(t, "SetBase(r2)", pushed("SetBase(r2)"), false, base2, true, stale)

	// A second switch attaches empty: HELLO, FEATURES_REQUEST, the
	// flow-stats request, then the resync as one push with no deletes.
	attach()
	w := logs[1].log()
	if len(w) != 4 {
		t.Fatalf("resync: %d writes, want 4 (HELLO, FEATURES_REQUEST, STATS_REQUEST, push)", len(w))
	}
	checkPush(t, "resync", w[3], false, base2, false, nil)

	// Every message written was counted once, by type.
	counts := map[openflow.MsgType]int{}
	for _, wl := range logs {
		for _, b := range wl.log() {
			for _, m := range splitMessages(t, b) {
				counts[m.Type]++
			}
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for typ, n := range counts {
		line := fmt.Sprintf("\nsdx_openflow_messages_out_total{type=%q} %d\n", typ.String(), n)
		if !strings.Contains(sb.String(), line) {
			t.Errorf("want %q in\n%s", strings.TrimSpace(line), sb.String())
		}
	}
	if counts[openflow.TypeBarrierRequest] != 4 {
		t.Errorf("%d barriers written, want one per push (4)", counts[openflow.TypeBarrierRequest])
	}
}
