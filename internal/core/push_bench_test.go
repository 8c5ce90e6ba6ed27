package core_test

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// barrierTap is the switch's side of the channel; it signals every
// BARRIER_REPLY the switch writes. The switch answers a barrier only after
// applying every FLOW_MOD before it.
type barrierTap struct {
	net.Conn
	replies chan struct{}
}

func (b *barrierTap) Write(p []byte) (int, error) {
	n, err := b.Conn.Write(p)
	if len(p) >= 2 && openflow.MsgType(p[1]) == openflow.TypeBarrierReply {
		b.replies <- struct{}{}
	}
	return n, err
}

// BenchmarkSetBasePush is one recompilation's push at 100 participants ×
// 5k prefixes (seed 1, the §6.1 policy mix): SetBase lowers a compiled
// table, diffs it against the desired one and writes adds, strict deletes
// and a barrier over loopback TCP to a served software switch; an
// operation ends when the switch has written the barrier's reply. It
// alternates between two tables a policy change apart, so every push
// carries stale deletes, as the benchmark's policy_recompile workload does.
func BenchmarkSetBasePush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ex := workload.GenerateExchange(rng, 100, 5000)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		b.Fatal(err)
	}
	if _, err := workload.InstallPolicies(rng, ex, ctrl, workload.DefaultPolicyMix()); err != nil {
		b.Fatal(err)
	}
	r1, err := ctrl.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var changed bool
	for _, id := range ctrl.Participants() {
		if p, _ := ctrl.Participant(id); p.Outbound != nil {
			if err := ctrl.SetPolicies(id, p.Inbound, nil); err != nil {
				b.Fatal(err)
			}
			changed = true
			break
		}
	}
	if !changed {
		b.Fatal("no participant has an outbound policy")
	}
	r2, err := ctrl.Compile()
	if err != nil {
		b.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	replies := make(chan struct{}, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_ = dataplane.NewSwitch(1).ServeController(&barrierTap{Conn: c, replies: replies})
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	srv := core.NewSwitchServer(nil)
	go srv.Serve(c)
	defer c.Close()
	for deadline := time.Now().Add(5 * time.Second); srv.Switches() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatal("the switch did not attach")
		}
	}
	push := func(res *core.CompileResult) {
		if err := srv.SetBase(res); err != nil {
			b.Fatal(err)
		}
		select {
		case <-replies:
		case <-time.After(10 * time.Second):
			b.Fatal("no barrier reply")
		}
	}
	push(r1) // the first push wipes the table; the rest are diffs

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			push(r2)
		} else {
			push(r1)
		}
	}
	b.ReportMetric(float64(len(r1.Rules)), "rules")
}
