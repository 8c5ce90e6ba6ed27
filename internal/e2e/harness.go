// Package e2e boots the repository's daemons — sdx-controller, sdx-bgpd,
// sdx-switch — as real operating-system processes wired over
// real TCP and UDP sockets, and drives end-to-end scenarios against them:
// multicast group delivery across the fabric, multi-tenant VRF isolation at
// the route server, and graceful-versus-hard daemon shutdown (RFC 4486
// Cease observation). The unit and integration tests exercise the same code
// in-process; this package is the only place the actual shipped binaries,
// their flag surfaces, and their signal handling are executed together.
//
// The scenarios live here rather than in the test files so that
// cmd/sdx-bench can run each one as a named e2e-* experiment gate; the e2e/
// test package wraps the same functions for `go test` and `make e2e`.
package e2e

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// repoRoot walks up from the working directory to the module root (go.mod).
// Both `go test ./e2e` and `make`-driven sdx-bench runs start somewhere
// inside the repository, so the walk always terminates at the right place.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("e2e: no go.mod above the working directory (run from inside the repository)")
		}
		dir = parent
	}
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// Binaries compiles the daemon binaries once per process (via the host go
// toolchain, which the environment guarantees) and returns the path of each
// requested one. Building once and spawning many keeps per-scenario cost to
// process startup.
func Binaries(names ...string) (map[string]string, error) {
	buildOnce.Do(func() {
		root, err := repoRoot()
		if err != nil {
			buildErr = err
			return
		}
		dir, err := os.MkdirTemp("", "sdx-e2e-bin-")
		if err != nil {
			buildErr = err
			return
		}
		args := []string{"build", "-o", dir + string(filepath.Separator),
			"./cmd/sdx-controller", "./cmd/sdx-bgpd", "./cmd/sdx-switch"}
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("e2e: building daemons: %v\n%s", err, out)
			return
		}
		buildDir = dir
	})
	if buildErr != nil {
		return nil, buildErr
	}
	out := make(map[string]string, len(names))
	for _, n := range names {
		p := filepath.Join(buildDir, n)
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("e2e: binary %s not built: %v", n, err)
		}
		out[n] = p
	}
	return out, nil
}

// Daemon is one spawned daemon process with its interleaved stdout+stderr
// captured line by line, so scenarios can assert on what the daemon says it
// did (sessions established, routes received, shutdown reasons).
type Daemon struct {
	Name string
	cmd  *exec.Cmd

	mu   sync.Mutex
	logs []string

	done    chan struct{}
	waitErr error
}

// StartDaemon spawns bin with args and begins scraping its output.
func StartDaemon(name, bin string, args ...string) (*Daemon, error) {
	cmd := exec.Command(bin, args...)
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("e2e: starting %s: %w", name, err)
	}
	pw.Close() // the child holds the write end now
	d := &Daemon{Name: name, cmd: cmd, done: make(chan struct{})}
	go d.scrape(pr)
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

func (d *Daemon) scrape(r io.ReadCloser) {
	defer r.Close()
	buf := make([]byte, 0, 4096)
	tmp := make([]byte, 4096)
	for {
		n, err := r.Read(tmp)
		if n > 0 {
			buf = append(buf, tmp[:n]...)
			for {
				i := strings.IndexByte(string(buf), '\n')
				if i < 0 {
					break
				}
				line := string(buf[:i])
				buf = buf[i+1:]
				d.mu.Lock()
				d.logs = append(d.logs, line)
				d.mu.Unlock()
			}
		}
		if err != nil {
			if len(buf) > 0 {
				d.mu.Lock()
				d.logs = append(d.logs, string(buf))
				d.mu.Unlock()
			}
			return
		}
	}
}

// Logs returns a snapshot of the captured output lines.
func (d *Daemon) Logs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.logs...)
}

// LogsContain reports whether any captured line matches the regexp.
func (d *Daemon) LogsContain(pattern string) bool {
	re := regexp.MustCompile(pattern)
	for _, l := range d.Logs() {
		if re.MatchString(l) {
			return true
		}
	}
	return false
}

// WaitLog polls until a captured line matches pattern, returning the first
// match. Daemons log asynchronously, so everything observable rides this.
func (d *Daemon) WaitLog(pattern string, timeout time.Duration) (string, error) {
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(timeout)
	for {
		for _, l := range d.Logs() {
			if re.MatchString(l) {
				return l, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("e2e: %s: no log line matching %q within %v; last lines:\n%s",
				d.Name, pattern, timeout, strings.Join(tail(d.Logs(), 12), "\n"))
		}
		select {
		case <-d.done:
			// Drain once more after exit; the final lines may have landed
			// between the scan above and the process dying.
			for _, l := range d.Logs() {
				if re.MatchString(l) {
					return l, nil
				}
			}
			return "", fmt.Errorf("e2e: %s exited before logging %q; last lines:\n%s",
				d.Name, pattern, strings.Join(tail(d.Logs(), 12), "\n"))
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func tail(lines []string, n int) []string {
	if len(lines) > n {
		return lines[len(lines)-n:]
	}
	return lines
}

// Signal delivers an operating-system signal to the daemon.
func (d *Daemon) Signal(sig os.Signal) error { return d.cmd.Process.Signal(sig) }

// Kill hard-kills the daemon (SIGKILL — no handler runs, the exact opposite
// of graceful shutdown).
func (d *Daemon) Kill() { d.cmd.Process.Kill() }

// WaitExit blocks until the process exits or the timeout elapses, returning
// the process's wait error (nil for a clean exit 0).
func (d *Daemon) WaitExit(timeout time.Duration) (error, bool) {
	select {
	case <-d.done:
		return d.waitErr, true
	case <-time.After(timeout):
		return nil, false
	}
}

// Stop force-kills the daemon and reaps it; the deferred cleanup path.
func (d *Daemon) Stop() {
	d.cmd.Process.Kill()
	<-d.done
}

// FreeTCPAddr reserves an ephemeral localhost TCP address and releases it
// for a daemon to bind. The vacated port can theoretically be re-grabbed
// before the daemon binds it, but the scenarios allocate sequentially on a
// single host, where this pattern is dependable.
func FreeTCPAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// FreeUDPAddr reserves an ephemeral localhost UDP address the same way.
func FreeUDPAddr() (string, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	return addr, nil
}

// ScrapeMetric fetches http://addr/metrics and returns the value of the
// given sample — the full series name including any {label="value"} set,
// exactly as the telemetry registry renders it. A series absent from the
// exposition reports 0 with ok=false (counters that never fired are still
// rendered, so absence usually means the instrument does not exist yet).
func ScrapeMetric(addr, series string) (float64, bool, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := line[len(series):]
		if !strings.HasPrefix(rest, " ") {
			continue // a longer series name with this one as a prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false, fmt.Errorf("e2e: parsing %q: %w", line, err)
		}
		return v, true, nil
	}
	return 0, false, nil
}

// WaitMetric polls a metric until pred accepts its value, returning the
// accepted value. Series not yet exposed poll as 0.
func WaitMetric(addr, series string, pred func(float64) bool, timeout time.Duration) (float64, error) {
	deadline := time.Now().Add(timeout)
	var last float64
	var lastErr error
	for time.Now().Before(deadline) {
		v, _, err := ScrapeMetric(addr, series)
		if err == nil && pred(v) {
			return v, nil
		}
		last, lastErr = v, err
		time.Sleep(25 * time.Millisecond)
	}
	if lastErr != nil {
		return 0, fmt.Errorf("e2e: scraping %s from %s: %w", series, addr, lastErr)
	}
	return 0, fmt.Errorf("e2e: metric %s on %s stuck at %v after %v", series, addr, last, timeout)
}

// WriteConfig materializes a controller configuration document in a
// temporary file and returns its path.
func WriteConfig(doc string) (string, error) {
	f, err := os.CreateTemp("", "sdx-e2e-cfg-*.json")
	if err != nil {
		return "", err
	}
	if _, err := f.WriteString(doc); err != nil {
		f.Close()
		return "", err
	}
	return f.Name(), f.Close()
}
