package core_test

import (
	"fmt"
	"net"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// TestResyncLargeTable: a switch holding a 100 x 5k exchange's
// base table — more than one 64 KiB flow-stats message can carry —
// detaches and reattaches. The resync must read the whole multi-part dump,
// delete nothing, and leave the table exactly as it was.
func TestResyncLargeTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100 x 5k exchange")
	}
	ctrl, ex, _ := buildExchangeOn(t, routeserver.New(nil), core.DefaultOptions(), 1, 100, 5000, 0, false)
	res, err := ctrl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := core.NewSwitchServer(reg)
	srv.Metrics = openflow.NewMetrics(reg)
	var mu sync.Mutex
	var lines []string
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	sw := dataplane.NewSwitch(1)
	for _, m := range ex.Members {
		p, _ := ctrl.Participant(m.ID)
		for _, port := range p.Ports {
			sw.AttachPort(port.Number, func([]byte) {})
		}
	}
	table := func() string {
		var out []string
		for _, e := range sw.Table.Entries() {
			out = append(out, fmt.Sprintf("%d %v %v", e.Priority, e.Match, e.Actions))
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	// attach connects the switch to the server over a fresh channel; done
	// closes once Serve has returned err.
	type channel struct {
		conn net.Conn
		done chan struct{}
		err  error
	}
	attach := func() *channel {
		ctrlSide, swSide := net.Pipe()
		go sw.ServeController(swSide)
		ch := &channel{conn: ctrlSide, done: make(chan struct{})}
		go func() {
			ch.err = srv.Serve(ctrlSide)
			close(ch.done)
		}()
		t.Cleanup(func() {
			ctrlSide.Close()
			<-ch.done
		})
		return ch
	}
	waitFor := func(what string, ch *channel, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			select {
			case <-ch.done:
				t.Fatalf("waiting for %s: the channel closed: %v", what, ch.err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	first := attach()
	waitFor("the switch to attach", first, func() bool { return srv.Switches() == 1 })
	if err := srv.SetBase(res); err != nil {
		t.Fatal(err)
	}
	waitFor("the base table", first, func() bool { return len(sw.Table.Entries()) == len(res.Rules) })
	// A flow-stats entry is at least 96 bytes, so this table cannot fit
	// one 65,535-byte message.
	if dump := 96 * len(res.Rules); dump <= 0xffff {
		t.Fatalf("%d rules dump to at least %d bytes, which fits one message", len(res.Rules), dump)
	}
	before := table()
	first.conn.Close()
	<-first.done
	if first.err != nil {
		t.Fatal(first.err)
	}

	second := attach()
	waitFor("the switch to reattach", second, func() bool { return srv.Switches() == 1 })

	resynced := regexp.MustCompile(fmt.Sprintf(`^core: resync complete: %d desired, 0 stale deleted in `, len(res.Rules)))
	mu.Lock()
	last := lines[len(lines)-1]
	mu.Unlock()
	if !resynced.MatchString(last) {
		t.Errorf("the resync logged %q, want a match for %v", last, resynced)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nsdx_core_resync_stale_rules_total 0\n") {
		t.Errorf("want sdx_core_resync_stale_rules_total 0 in\n%s", sb.String())
	}
	var parts int
	if m := regexp.MustCompile(`\nsdx_openflow_messages_in_total\{type="STATS_REPLY"\} (\d+)\n`).FindStringSubmatch(sb.String()); m != nil {
		parts, _ = strconv.Atoi(m[1])
	}
	if parts < 2 {
		t.Errorf("the dump came in %d STATS_REPLY parts, want at least 2", parts)
	}
	if after := table(); after != before {
		t.Error("the resync changed the switch's table")
	}
}
