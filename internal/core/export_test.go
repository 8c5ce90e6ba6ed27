package core

// InvalidateFECState forces c's next Compile to rebuild the §4.2 state (reach
// sets, universe, signatures) from scratch, as if nothing were cached.
func InvalidateFECState(c *Controller) { c.mds.invalidate() }

// ReachKeys returns the (participant, next hop) pairs c's current outbound
// policies need reach sets for, in the order the MDS pass uses them.
func ReachKeys(c *Controller) []string {
	keys := c.snapshot().reachSetKeys()
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = string(k.participant) + ">" + string(k.hop)
	}
	return out
}
