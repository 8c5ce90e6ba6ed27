// Package e2e_test runs the daemon-level end-to-end suite: every scenario
// boots real sdx binaries as separate processes wired over real TCP/UDP on
// localhost, then asserts on their logs and /metrics. `make e2e` runs these;
// the scenarios themselves are package e2e's Run* functions.
package e2e_test

import (
	"encoding/json"
	"os"
	"testing"

	"sdx/e2e"
)

// logWriter adapts t.Logf so scenario progress lands in test output.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func dump(t *testing.T, v any) {
	b, _ := json.MarshalIndent(v, "", "  ")
	t.Logf("result: %s", b)
}

func skipIfShort(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon-level e2e scenario; skipped in -short mode")
	}
}

func TestE2EShutdownGraceful(t *testing.T) {
	skipIfShort(t)
	res, err := e2e.RunShutdown(true, logWriter{t})
	if err != nil {
		t.Fatalf("RunShutdown(graceful): %v", err)
	}
	dump(t, res)
	if !res.OK() {
		t.Fatalf("graceful shutdown gates failed")
	}
	if res.CeaseAdminShutdown < 1 {
		t.Fatalf("route server never saw the RFC 4486 admin-shutdown Cease")
	}
}

func TestE2EShutdownHardKill(t *testing.T) {
	skipIfShort(t)
	res, err := e2e.RunShutdown(false, logWriter{t})
	if err != nil {
		t.Fatalf("RunShutdown(hard): %v", err)
	}
	dump(t, res)
	if !res.OK() {
		t.Fatalf("hard-kill shutdown gates failed")
	}
	if res.CeaseAdminShutdown != 0 {
		t.Fatalf("hard-killed daemon cannot have sent a Cease, yet one was counted")
	}
}

func TestE2EVRFIsolation(t *testing.T) {
	skipIfShort(t)
	res, err := e2e.RunVRFIsolation(logWriter{t})
	if err != nil {
		t.Fatalf("RunVRFIsolation: %v", err)
	}
	dump(t, res)
	if !res.OK() {
		t.Fatalf("VRF isolation gates failed")
	}
}

func TestE2EMulticastGroup(t *testing.T) {
	skipIfShort(t)
	res, err := e2e.RunMulticast(logWriter{t})
	if err != nil {
		t.Fatalf("RunMulticast: %v", err)
	}
	dump(t, res)
	if !res.OK() {
		t.Fatalf("multicast group gates failed")
	}
}

// TestE2ESoak is the faultnet-layered kill/partition soak. It cycles a live
// session through partitions, hard kills, and graceful restarts; it is slow
// by design, so it only runs when SDX_E2E_SOAK is set (make chaos sets it).
func TestE2ESoak(t *testing.T) {
	skipIfShort(t)
	if os.Getenv("SDX_E2E_SOAK") == "" {
		t.Skip("set SDX_E2E_SOAK=1 to run the kill/partition soak")
	}
	res, err := e2e.RunSoak(6, logWriter{t})
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	dump(t, res)
	if !res.OK() {
		t.Fatalf("soak gates failed")
	}
}
