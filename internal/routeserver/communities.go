package routeserver

import "sdx/internal/bgp"

// RouteExportFilter decides whether advertiser's concrete route may be
// exported to receiver (whose AS number is supplied, since community
// conventions name peers by AS). A nil filter exports everything, the
// route-server default. The filter is called with Server locks held: it
// must not call back into the Server.
type RouteExportFilter func(advertiser, receiver ID, receiverAS uint32, route bgp.Route) bool

// SetRouteExportPolicy replaces the export filter New installed. The filter
// affects best-route computation, Exports and ReachableVia (and therefore
// the SDX policy reach filters), and re-advertisement, from the next read
// on.
//
// Caveat: the equivalence-class default next hops (BestTwoIn) remain
// computed from the unfiltered candidate set; deployments mixing per-pair
// route hiding with SDX default forwarding should hide routes symmetrically
// or accept that a hidden best route still attracts default traffic, as at
// any route-server IXP where participants also keep direct sessions.
func (s *Server) SetRouteExportPolicy(f RouteExportFilter) {
	s.partMu.Lock()
	defer s.partMu.Unlock()
	s.routeExport = f
	s.epoch++
}

// CommunityExportPolicy returns the conventional RFC 1997 route-server
// export controls, as deployed at large IXPs, for a route server with the
// given AS:
//
//	(0, 0)           do not announce to anyone
//	(0, peerAS)      do not announce to the peer with that AS
//	(rsAS, peerAS)   announce ONLY to peers named this way (whitelist:
//	                 the presence of any such community hides the route
//	                 from everyone else)
//
// Communities carry 16-bit halves, so 4-octet ASNs cannot be named by the
// classic RFC 1997 conventions; a community half matches only peers whose
// ASN fits 16 bits (RFC 8092 large communities would lift this).
func CommunityExportPolicy(rsAS uint32) RouteExportFilter {
	return func(adv, recv ID, recvAS uint32, route bgp.Route) bool {
		if route.Attrs == nil {
			return true
		}
		whitelisted := false
		allowed := false
		recvFits := recvAS <= 0xffff
		for _, c := range route.Attrs.Communities {
			upper := uint16(c >> 16)
			lower := uint16(c)
			switch {
			case upper == 0:
				if lower == 0 {
					return false // announce to no one
				}
				if recvFits && uint32(lower) == recvAS {
					return false // explicit per-peer block
				}
			case uint32(upper) == rsAS:
				whitelisted = true
				if recvFits && uint32(lower) == recvAS {
					allowed = true
				}
			}
		}
		if whitelisted {
			return allowed
		}
		return true
	}
}

// Community builds the 32-bit community value (upper:lower).
func Community(upper, lower uint16) uint32 {
	return uint32(upper)<<16 | uint32(lower)
}
