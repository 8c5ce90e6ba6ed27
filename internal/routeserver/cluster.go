package routeserver

import "sdx/internal/bgp"

// AdjRIBOut renders participant id's Adj-RIB-Out from s in canonical wire
// form: best routes for every prefix (sorted), packed into RFC 4271
// UPDATEs by bgp.PackUpdates, marshalled with 4-octet AS_PATH segments,
// concatenated. Two engines in identical logical state produce identical
// bytes — the cluster equivalence property.
func AdjRIBOut(s *Server, id ID, resolve NextHopResolver) ([]byte, error) {
	var adverts []bgp.Advertisement
	for _, prefix := range s.Prefixes() {
		best, ok := s.BestFor(id, prefix)
		if !ok {
			continue
		}
		attrs := *best.Attrs
		if resolve != nil {
			if nh := resolve(id, prefix, best); nh.IsValid() {
				attrs = attrs.WithNextHop(nh)
			}
		}
		adverts = append(adverts, bgp.Advertisement{Prefix: prefix, Attrs: attrs})
	}
	msgs, err := bgp.PackUpdates(nil, adverts)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, m := range msgs {
		b, err := bgp.MarshalAS4(m)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}
