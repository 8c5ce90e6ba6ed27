package core

import (
	"net/netip"
	"sort"

	"sdx/internal/netutil"
	"sdx/internal/routeserver"
)

// pipeline is an immutable snapshot of the controller state the §4.1
// compilation pipeline reads. Compile takes one under a brief read lock and
// then computes without holding any controller lock at all, so concurrent
// readers (the fast path, ARP, monitoring) are never blocked behind a full
// compilation. The route server, VNH pool, and FEC table are internally
// synchronized and therefore shared by reference; participant records,
// which SetPolicies mutates in place, are copied by value.
type pipeline struct {
	opts Options
	rs   *routeserver.Server
	pool *netutil.IPPool
	fecs *FECTable
	// mds is the controller's cached incremental-MDS state, shared by
	// reference; refreshed only under compileMu.
	mds *fecState

	parts    []*Participant // registration order; value copies
	byID     map[ID]*Participant
	vports   map[ID]uint16
	byVPort  map[uint16]ID // vports inverted: which participant a fwd() names
	portMACs map[uint16]netutil.MAC
	// vrfs maps each participant to its isolation domain; vrfList is the
	// distinct domains in sorted order (the fan-out axis for per-domain
	// passes). Both default to the shared domain when tenancy is unused.
	vrfs    map[ID]VRF
	vrfList []VRF
	// groups are the multicast groups in registration order; value copies.
	groups []*Group
}

// vrfOf returns a participant's isolation domain (the default domain for
// unknown IDs, which keeps test pipelines without tenancy working).
func (p *pipeline) vrfOf(id ID) VRF { return p.vrfs[id] }

// vrfDomains returns the snapshot's domain list, never empty.
func (p *pipeline) vrfDomains() []VRF {
	if len(p.vrfList) == 0 {
		return []VRF{""}
	}
	return p.vrfList
}

// snapshot captures the compilation inputs under the read lock.
func (c *Controller) snapshot() *pipeline {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snapshotLocked()
}

// snapshotLocked is snapshot for callers that already hold c.mu.
func (c *Controller) snapshotLocked() *pipeline {
	p := &pipeline{
		opts:     c.opts,
		rs:       c.rs,
		pool:     c.pool,
		fecs:     c.fecs,
		mds:      c.mds,
		parts:    make([]*Participant, 0, len(c.order)),
		byID:     make(map[ID]*Participant, len(c.order)),
		vports:   make(map[ID]uint16, len(c.vports)),
		byVPort:  make(map[uint16]ID, len(c.vports)),
		portMACs: make(map[uint16]netutil.MAC, len(c.portMACs)),
	}
	p.vrfs = make(map[ID]VRF, len(c.order))
	for _, id := range c.order {
		cp := *c.participants[id]
		p.parts = append(p.parts, &cp)
		p.byID[id] = &cp
		p.vrfs[id] = cp.VRF
	}
	seenVRF := make(map[VRF]bool)
	for _, cp := range p.parts {
		if !seenVRF[cp.VRF] {
			seenVRF[cp.VRF] = true
			p.vrfList = append(p.vrfList, cp.VRF)
		}
	}
	sort.Slice(p.vrfList, func(i, j int) bool { return p.vrfList[i] < p.vrfList[j] })
	for _, name := range c.groupOrder {
		cg := *c.groups[name]
		p.groups = append(p.groups, &cg)
	}
	for id, v := range c.vports {
		p.vports[id] = v
		p.byVPort[v] = id
	}
	for n, mac := range c.portMACs {
		p.portMACs[n] = mac
	}
	return p
}

// commit installs a compilation's equivalence classes under the write lock:
// the table is replaced and VNHs not carried over are returned to the pool.
// Holding the write lock makes the swap atomic with respect to FastReact,
// which holds the read lock across its allocate-and-compile sequence.
func (c *Controller) commit(fecs []*FEC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.fecs.All()
	c.fecs.replace(fecs)
	reused := make(map[netip.Addr]bool, len(fecs))
	for _, f := range fecs {
		reused[f.VNH] = true
	}
	for _, f := range old {
		if !reused[f.VNH] {
			c.pool.Release(f.VNH)
		}
	}
	// Templates own their rule slices and are keyed by a signature that
	// survives the commit, so nothing here makes them stale. Dropping them is
	// the memo's only size bound: it holds one template per signature seen
	// and nothing else evicts.
	c.fastCache.invalidate()
}
