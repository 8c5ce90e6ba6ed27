package core

import (
	"fmt"
	"net/netip"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// TestReplicaLogsOneLinePerCompilePoint drives a Replica over Figure 1: a
// compile point logs exactly one summary line carrying the committed class
// count, and a quick-stage reaction logs nothing (its numbers go to the
// sdx_core_fastpath_* metrics).
func TestReplicaLogsOneLinePerCompilePoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := DefaultOptions()
	opts.Telemetry = reg
	ctrl := figure1(t, opts)
	rep := NewReplica(ctrl, NewSwitchServer(nil))
	var mu sync.Mutex
	var lines []string
	rep.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	logged := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
	fe := routeserver.NewFrontend(ctrl.RouteServer(), nil)
	rep.Drive(fe)

	if err := fe.Mark(); err != nil {
		t.Fatal(err)
	}
	// The committed table is the compilation's FECs: §4.2's three groups.
	fecs := len(ctrl.FECs())
	if fecs != 3 {
		t.Fatalf("figure 1 compiled to %d FECs, want 3", fecs)
	}
	summary := regexp.MustCompile(fmt.Sprintf(`^core: compile dur=\S+ rules=[1-9]\d* classifier=[1-9]\d* fecs=%d incremental=(true|false) resigned=\d+$`, fecs))
	got := logged()
	if len(got) != 1 || !summary.MatchString(got[0]) {
		t.Fatalf("compile point logged %q, want one line matching %v", got, summary)
	}

	if err := fe.Originate("C", netip.MustParsePrefix("16.0.0.0/8"), netip.MustParseAddr("172.31.0.4")); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nsdx_core_fastpath_reactions_total 1\n") {
		t.Fatalf("the announcement ran no quick-stage reaction:\n%s", sb.String())
	}
	if got := logged(); len(got) != 1 {
		t.Errorf("the quick-stage reaction logged %q", got[1:])
	}
}
