package dataplane

import (
	"strings"
	"testing"

	"sdx/internal/openflow"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// A matched rule with an empty action list is a policy drop: the rule counts
// the hit, and no drop reason does.
func TestPolicyDropIsNotASwitchDrop(t *testing.T) {
	sw, _ := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 10,
		Cookie:   0xCC,
	})
	if err := sw.Inject(1, udpFrame(80)); err != nil {
		t.Fatal(err)
	}
	if drops := sw.DroppedByReason(); drops != [NumDropReasons]uint64{} {
		t.Fatalf("explicit drop must not count as a switch drop: %v", drops)
	}
	if d1, _ := sw.PortDrops(1); d1 != [NumDropReasons]uint64{} {
		t.Fatalf("explicit drop charged to its ingress port: %v", d1)
	}
	if got := sw.Table.Entries()[0].Packets; got != 1 {
		t.Fatalf("drop rule counted %d packets, want 1", got)
	}
}

// Per-port drop attribution: drops are charged to the ingress port that
// received the frame, per reason, and surface in the telemetry exposition.
func TestPortDropAttribution(t *testing.T) {
	sw, _ := newTestSwitch()
	reg := telemetry.NewRegistry()
	sw.EnableTelemetry(reg)
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(2),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(999)},
	})
	frame := udpFrame(80)
	sw.Inject(3, frame) // no_match on port 3
	sw.Inject(3, frame) // no_match on port 3
	sw.Inject(2, frame) // no_port charged to ingress port 2

	d3, ok := sw.PortDrops(3)
	if !ok || d3[DropNoMatch] != 2 || d3[DropNoPort] != 0 {
		t.Fatalf("port 3 drops = %v (ok=%v), want no_match=2", d3, ok)
	}
	d2, ok := sw.PortDrops(2)
	if !ok || d2[DropNoPort] != 1 || d2[DropNoMatch] != 0 {
		t.Fatalf("port 2 drops = %v (ok=%v), want no_port=1", d2, ok)
	}
	if _, ok := sw.PortDrops(77); ok {
		t.Fatal("PortDrops on unattached port must report !ok")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		`sdx_dataplane_port_dropped_total{port="2",reason="no_port"} 1`,
		`sdx_dataplane_port_dropped_total{port="3",reason="no_match"} 2`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q\n%s", want, got)
		}
	}
}

// Once RunController has managed the channel, a miss with the controller
// gone is a fail-open ctrl_down drop, distinct from never-configured
// no_match.
func TestCtrlDownDropReason(t *testing.T) {
	sw, _ := newTestSwitch()
	sw.failOpen.Store(true) // what RunController does at entry
	sw.Inject(3, udpFrame(80))

	byReason := sw.DroppedByReason()
	if byReason[DropCtrlDown] != 1 || byReason[DropNoMatch] != 0 {
		t.Fatalf("DroppedByReason = %v, want ctrl_down=1", byReason)
	}
	d3, _ := sw.PortDrops(3)
	if d3[DropCtrlDown] != 1 {
		t.Fatalf("port 3 drops = %v, want ctrl_down=1", d3)
	}

	reg := telemetry.NewRegistry()
	sw.EnableTelemetry(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `sdx_dataplane_dropped_total{reason="ctrl_down"} 1`) {
		t.Errorf("exposition missing ctrl_down drop\n%s", b.String())
	}
}
