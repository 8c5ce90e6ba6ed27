package core_test

import (
	"net/netip"
	"testing"

	"sdx/internal/core"
	"sdx/internal/netutil"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// TestTagBindingIsPermanent replays a trace through both compiler stages and
// checks that a virtual next hop resolves to one virtual MAC for as long as
// the exchange runs: routers cache ARP answers for minutes to hours, and the
// VNH pool re-mints retired addresses for new classes, so a re-minted VNH
// must carry the tag it first had. ResolveARP must agree for every live VNH
// and answer nothing for a VNH the last background compilation retired.
func TestTagBindingIsPermanent(t *testing.T) {
	ctrl, ex, rng := buildExchangeOn(t, routeserver.New(nil), core.DefaultOptions(), 1, 40, 400, 0, false)
	if _, err := ctrl.Compile(); err != nil {
		t.Fatal(err)
	}
	bound := make(map[netip.Addr]netutil.MAC)
	rebound, arpWrong := 0, 0
	mint := func(f core.FEC) {
		if mac, ok := bound[f.VNH]; ok && mac != f.VMAC {
			rebound++
			if rebound <= 5 {
				t.Errorf("VNH %v re-minted with VMAC %v, first bound to %v", f.VNH, f.VMAC, mac)
			}
			return
		}
		bound[f.VNH] = f.VMAC
	}
	arp := func(bi int, vnh netip.Addr, want netutil.MAC, wantOK bool) {
		if mac, ok := ctrl.ResolveARP(vnh); ok != wantOK || (ok && mac != want) {
			arpWrong++
			if arpWrong <= 5 {
				t.Errorf("burst %d: ResolveARP(%v) = %v, %v; want %v, %v", bi, vnh, mac, ok, want, wantOK)
			}
		}
	}
	live := func() map[netip.Addr]bool {
		m := make(map[netip.Addr]bool)
		for _, f := range ctrl.FECs() {
			m[f.VNH] = true
		}
		return m
	}
	for _, f := range ctrl.FECs() {
		mint(f)
	}

	bursts := workload.GenerateTrace(rng, ex, workload.DefaultTraceOptions())
	if len(bursts) < 600 {
		t.Fatalf("trace has %d bursts, want 600", len(bursts))
	}
	retired := make(map[netip.Addr]bool)
	mints, remints := 0, 0
	for bi, b := range bursts[:600] {
		fast, err := ctrl.FastReact(applyBurst(t, ctrl.RouteServer(), ex, b))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fast.NewFECs {
			mint(f)
			mints++
			if retired[f.VNH] {
				remints++
			}
		}
		if (bi+1)%20 != 0 {
			continue
		}
		before := live()
		if _, err := ctrl.Compile(); err != nil {
			t.Fatal(err)
		}
		for _, f := range ctrl.FECs() {
			if !before[f.VNH] {
				mint(f)
			}
			arp(bi, f.VNH, bound[f.VNH], true)
		}
		after := live()
		retired = make(map[netip.Addr]bool)
		for vnh := range before {
			if !after[vnh] {
				retired[vnh] = true
				arp(bi, vnh, netutil.MAC{}, false)
			}
		}
	}
	if rebound > 0 || arpWrong > 0 {
		t.Errorf("%d mints re-bound a VNH to a different VMAC; %d ARP answers wrong", rebound, arpWrong)
	}
	t.Logf("%d of %d quick-stage mints reused a VNH the previous compile retired", remints, mints)
}
