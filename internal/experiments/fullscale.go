package experiments

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// FullScale targets, from the ROADMAP: a full-DFZ table must load in under
// 10 seconds, sustain at least 50k updates/s of steady-state churn, and fit
// in 2 GB of resident memory.
const (
	FullScaleLoadBudget  = 10 * time.Second
	FullScaleChurnFloor  = 50_000.0
	FullScaleMemCeiling  = 2 << 30
	fullScaleDefaultSize = 1_000_000
)

// FullScaleResult reports the full-DFZ scale experiment: a synthetic
// 1M-prefix table bulk-loaded into the route server, then churned at steady
// state, with the resident footprint measured at the end.
type FullScaleResult struct {
	Participants int `json:"participants"`
	Prefixes     int `json:"prefixes"`
	Routes       int `json:"routes"`
	// AttrCombos is the number of distinct interned attribute sets backing
	// all Routes: the interning win is Routes/AttrCombos sharing.
	AttrCombos int `json:"attr_combos"`

	LoadTime         time.Duration `json:"load_ns"`
	LoadRoutesPerSec float64       `json:"load_routes_per_sec"`

	ChurnEvents        int           `json:"churn_events"`
	ChurnTime          time.Duration `json:"churn_ns"`
	ChurnUpdatesPerSec float64       `json:"churn_updates_per_sec"`

	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	// RSSBytes is VmRSS from /proc/self/status (0 where unavailable).
	RSSBytes uint64 `json:"rss_bytes"`

	// Pass/fail against the ROADMAP targets. Load and churn gates apply
	// only at full scale (scaled-down smoke runs report them as true);
	// the memory ceiling always applies.
	LoadOK  bool `json:"load_ok"`
	ChurnOK bool `json:"churn_ok"`
	MemOK   bool `json:"mem_ok"`
}

// FullScale generates a DFZ-shaped table of nPrefixes prefixes across
// nParticipants members, bulk-loads it, drives churnEvents of steady-state
// churn through ApplyUpdateTouched, and measures the resident footprint.
// Zero/negative arguments select the ROADMAP configuration (500 members,
// 1M prefixes scaled by cfg.Scale, 250k churn events).
func FullScale(cfg Config, nParticipants, nPrefixes, churnEvents int) (*FullScaleResult, error) {
	if nParticipants <= 0 {
		nParticipants = 500
	}
	if nPrefixes <= 0 {
		nPrefixes = cfg.scale(fullScaleDefaultSize)
	}
	if churnEvents <= 0 {
		churnEvents = 250_000
	}
	d := workload.GenerateDFZ(cfg.Seed, nParticipants, nPrefixes)
	rs := routeserver.New(nil)
	if err := d.Register(rs); err != nil {
		return nil, err
	}
	res := &FullScaleResult{
		Participants: nParticipants,
		Prefixes:     nPrefixes,
		Routes:       d.RouteCount(),
		AttrCombos:   d.AttrCombos(),
		ChurnEvents:  churnEvents,
	}

	// A bulk load and sustained churn on a default GOGC would spend a
	// large fraction of wall-clock in collection cycles over a growing,
	// pointer-rich table; relax the target for the measured phases and
	// restore it before the footprint measurement.
	prevGC := debug.SetGCPercent(400)
	start := time.Now()
	if err := d.Load(rs); err != nil {
		debug.SetGCPercent(prevGC)
		return nil, err
	}
	res.LoadTime = time.Since(start)
	res.LoadRoutesPerSec = float64(res.Routes) / res.LoadTime.Seconds()
	// Load marks every prefix in the controller journal; drain it the way
	// a compiling controller continuously would.
	rs.DrainTouched()

	if err := fullScaleChurn(cfg, d, rs, churnEvents, res); err != nil {
		debug.SetGCPercent(prevGC)
		return nil, err
	}
	rs.DrainTouched()
	debug.SetGCPercent(prevGC)

	// Resident footprint of the live table: return freed generator/churn
	// garbage to the OS first so RSS reflects retained state, not peak
	// allocator slack.
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapAllocBytes = ms.HeapAlloc
	res.SysBytes = ms.Sys
	res.RSSBytes = readRSS()
	// The table must stay reachable through the measurement, or the
	// collector is free to reclaim it first and the numbers measure an
	// empty heap.
	runtime.KeepAlive(rs)
	runtime.KeepAlive(d)

	fullScale := nPrefixes >= fullScaleDefaultSize
	res.LoadOK = !fullScale || res.LoadTime < FullScaleLoadBudget
	res.ChurnOK = !fullScale || res.ChurnUpdatesPerSec >= FullScaleChurnFloor
	resident := res.RSSBytes
	if resident == 0 {
		resident = ms.Sys
	}
	res.MemOK = resident < FullScaleMemCeiling

	fmt.Fprintf(cfg.out(), "fullscale: %d members, %d prefixes, %d routes over %d attr combos\n",
		res.Participants, res.Prefixes, res.Routes, res.AttrCombos)
	fmt.Fprintf(cfg.out(), "fullscale: load %v (%.0f routes/s), churn %.0f updates/s over %d events\n",
		res.LoadTime.Round(time.Millisecond), res.LoadRoutesPerSec,
		res.ChurnUpdatesPerSec, res.ChurnEvents)
	fmt.Fprintf(cfg.out(), "fullscale: heap %d MB, sys %d MB, rss %d MB (load<10s:%v churn>=50k/s:%v mem<2GB:%v)\n",
		res.HeapAllocBytes>>20, res.SysBytes>>20, res.RSSBytes>>20,
		res.LoadOK, res.ChurnOK, res.MemOK)

	if !res.MemOK {
		return res, fmt.Errorf("fullscale: resident memory %d bytes exceeds the %d-byte ceiling",
			resident, int64(FullScaleMemCeiling))
	}
	return res, nil
}

// fullScaleChurn drives nEvents of steady-state churn: mostly attribute
// changes (a re-advertisement with a different combo from the announcer's
// pool), plus withdraw/re-advertise cycles split across adjacent batches so
// the table size stays constant. Events are grouped per member into
// ApplyUpdateTouched calls, the way session bursts arrive after RFC 4271
// packing.
func fullScaleChurn(cfg Config, d *workload.DFZ, rs *routeserver.Server, nEvents int, res *FullScaleResult) error {
	const batch = 4096
	rng := cfg.rng()
	type pending struct{ prefix, rank int }
	var readv []pending // withdrawn last batch, re-advertised this batch

	sent := 0
	start := time.Now()
	for salt := uint64(1); sent < nEvents; salt++ {
		adv := make(map[int][]bgp.Route)
		wd := make(map[int][]netip.Prefix)
		for _, p := range readv {
			r := d.Route(p.prefix, p.rank, salt)
			mi := d.Announcers(p.prefix)[p.rank]
			adv[mi] = append(adv[mi], r)
		}
		readv = readv[:0]
		for n := 0; n < batch; n++ {
			i := rng.Intn(len(d.Prefixes))
			anns := d.Announcers(i)
			rank := rng.Intn(len(anns))
			if rng.Intn(10) == 0 { // 10%: withdraw now, re-advertise next batch
				wd[anns[rank]] = append(wd[anns[rank]], d.Prefixes[i])
				readv = append(readv, pending{i, rank})
			} else {
				adv[anns[rank]] = append(adv[anns[rank]], d.Route(i, rank, salt))
			}
		}
		members := make([]int, 0, len(adv)+len(wd))
		seen := map[int]bool{}
		for mi := range adv {
			members, seen[mi] = append(members, mi), true
		}
		for mi := range wd {
			if !seen[mi] {
				members = append(members, mi)
			}
		}
		sort.Ints(members)
		for _, mi := range members {
			id := d.Members[mi].ID
			if _, err := rs.ApplyUpdateTouched(id, wd[mi], adv[mi]); err != nil {
				return err
			}
			sent += len(wd[mi]) + len(adv[mi])
		}
	}
	res.ChurnEvents = sent
	res.ChurnTime = time.Since(start)
	if res.ChurnTime > 0 {
		res.ChurnUpdatesPerSec = float64(sent) / res.ChurnTime.Seconds()
	}
	return nil
}

// readRSS returns VmRSS in bytes from /proc/self/status, or 0 if the file
// is unreadable (non-Linux platforms).
func readRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
