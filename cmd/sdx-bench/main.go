// sdx-bench regenerates the tables and figures of the paper's evaluation.
//
// Usage:
//
//	sdx-bench -experiment all
//	sdx-bench -experiment fig6 -scale 1.0
//	sdx-bench -experiment fig8 -participants 100,200,300 -seed 7
//
// Experiments: table1, fig5a, fig5b, fig6, fig7 (alias fig8), fig9, fig10,
// ablation, all. Scale multiplies the default prefix counts; 1.0 keeps the
// laptop-sized defaults documented in EXPERIMENTS.md. Performance of the
// running system is measured by benchmark/ (see BENCHMARK.json), and the
// daemon-level scenarios run under `make e2e`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sdx/internal/experiments"
	"sdx/internal/telemetry"
)

func main() {
	var (
		experiment   = flag.String("experiment", "all", "table1|fig5a|fig5b|fig6|fig7|fig8|fig9|fig10|ablation|all")
		seed         = flag.Int64("seed", 42, "random seed")
		scale        = flag.Float64("scale", 1.0, "prefix-count multiplier (1.0 = defaults)")
		participants = flag.String("participants", "", "comma-separated participant counts (default per experiment)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address for the run")
	)
	flag.Parse()

	if *pprofAddr != "" {
		srv, err := telemetry.Serve(*pprofAddr, nil, telemetry.PprofMounts()...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", srv.Addr())
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Out: os.Stdout}
	counts, err := parseCounts(*participants)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		fmt.Printf("=== %s ===\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	any := false
	if want("table1") {
		any = true
		run("table1", func() error { _, err := experiments.Table1(cfg); return err })
	}
	if want("fig5a") {
		any = true
		run("fig5a", func() error { _, err := experiments.Fig5a(cfg); return err })
	}
	if want("fig5b") {
		any = true
		run("fig5b", func() error { _, err := experiments.Fig5b(cfg); return err })
	}
	if want("fig6") {
		any = true
		run("fig6", func() error { _, err := experiments.Fig6(cfg, counts, nil); return err })
	}
	if want("fig7") || want("fig8") {
		any = true
		run("fig7+fig8", func() error { _, err := experiments.Fig7and8(cfg, counts, nil); return err })
	}
	if want("fig9") {
		any = true
		run("fig9", func() error { _, err := experiments.Fig9(cfg, counts, nil); return err })
	}
	if want("fig10") {
		any = true
		run("fig10", func() error { _, err := experiments.Fig10(cfg, counts, 0); return err })
	}
	if want("ablation") {
		any = true
		run("ablation", func() error { _, err := experiments.Ablation(cfg, 0, 0); return err })
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad participant count %q: %v", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
