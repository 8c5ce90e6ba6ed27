package core

import (
	"fmt"

	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/policy"
)

// Priority bands. Base-table rules occupy [basePriority, fastPriority);
// fast-path rules sit above them, every push counting down from fastTop, so
// a quick reaction wins until the background pass swaps in fresh base tables.
const (
	basePriority uint16 = 0x1000
	fastPriority uint16 = 0xf000
	fastTop      uint16 = 0xfffe
)

// FlowModsForRules lowers an ordered rule list (highest priority first) to
// FLOW_MODs in the given priority band.
func FlowModsForRules(rules []policy.Rule, top uint16) ([]*openflow.FlowMod, error) {
	if int(top) < len(rules) {
		return nil, fmt.Errorf("core: %d rules do not fit under priority %d", len(rules), top)
	}
	out := make([]*openflow.FlowMod, len(rules))
	for i, r := range rules {
		fm, err := openflow.FlowModFromRule(r, top-uint16(i))
		if err != nil {
			return nil, fmt.Errorf("core: rule %d (%v): %w", i, r, err)
		}
		out[i] = fm
	}
	return out, nil
}

// InstallBase replaces the base priority band of the switch with the
// compilation result in one batched table write: a full compilation at
// Figure-7 scale installs thousands of rules, and the batch merges them into
// the table and invalidates the lookup cache once instead of per rule.
// Fast-path rules (if any) are also cleared: a full compilation subsumes
// them.
func InstallBase(sw *dataplane.Switch, res *CompileResult) error {
	fms, err := FlowModsForRules(res.Rules, fastPriority-1)
	if err != nil {
		return err
	}
	sw.Table.Clear()
	return sw.InstallFlowMods(fms)
}

// InstallFast adds a fast-path result above the base band (batched, like
// InstallBase).
func InstallFast(sw *dataplane.Switch, res *FastPathResult) error {
	fms, err := FlowModsForRules(res.Rules, fastTop)
	if err != nil {
		return err
	}
	return sw.InstallFlowMods(fms)
}
