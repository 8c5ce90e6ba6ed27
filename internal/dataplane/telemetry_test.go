package dataplane

import (
	"strings"
	"testing"

	"sdx/internal/openflow"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// The registry reads the switch's intrusive counters only at scrape time, so
// the numbers in the exposition must match what the methods report.
func TestSwitchTelemetryExposition(t *testing.T) {
	sw, _ := newTestSwitch()
	reg := telemetry.NewRegistry()
	sw.EnableTelemetry(reg)
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 1,
		Actions:  []openflow.Action{openflow.Output(2), openflow.Output(77)},
	})
	frame := udpFrame(80)
	for i := 0; i < 4; i++ {
		if err := sw.Inject(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	sw.Inject(3, frame) // table miss with no controller: dropped no_match

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"sdx_dataplane_table_hits_total 4",
		"sdx_dataplane_table_misses_total 1",
		`sdx_dataplane_dropped_total{reason="no_match"} 1`,
		`sdx_dataplane_dropped_total{reason="no_port"} 4`,
		"sdx_dataplane_flow_entries 1",
		`sdx_dataplane_port_frames_total{port="1",dir="rx"} 4`,
		`sdx_dataplane_port_frames_total{port="2",dir="tx"} 4`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q\n%s", want, got)
		}
	}

	// DroppedByReason reads the same counters.
	drops := sw.DroppedByReason()
	if noMatch, noPort := drops[DropNoMatch], drops[DropNoPort]; noMatch != 1 || noPort != 4 {
		t.Errorf("DroppedByReason() no_match, no_port = %d, %d; want 1, 4", noMatch, noPort)
	}
}

// BenchmarkInjectTelemetryOverhead compares Switch.Inject with no registry
// against one with live telemetry. The instruments are intrusive atomic
// counters that are always maintained and only READ at scrape time, so the
// two cases execute identical hot-path code; live stays within ~5% of nil
// (documented expectation, not asserted — wall-clock deltas at the
// nanosecond scale are too noisy for CI). Both cases report zero allocs/op
// (TestCachedForwardingAllocsZero pins the floor).
func BenchmarkInjectTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, reg *telemetry.Registry) {
		sw := NewSwitch(1)
		for _, p := range []uint16{1, 2} {
			sw.AttachPort(p, func([]byte) {})
		}
		if reg != nil {
			sw.EnableTelemetry(reg)
		}
		sw.Table.Add(&FlowEntry{
			Match:    policy.MatchAll.Port(1),
			Priority: 1,
			Actions:  []openflow.Action{openflow.Output(2)},
		})
		frame := udpFrame(80)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sw.Inject(1, frame); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("live", func(b *testing.B) { run(b, telemetry.NewRegistry()) })
}
