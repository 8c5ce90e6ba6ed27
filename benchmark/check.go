package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// childDoc is what runCheck reads back from a child run's document.
type childDoc struct {
	EndToEnd map[string]namedValue `json:"end_to_end"`
	Named    map[string]namedValue `json:"workload_metrics"`
	Failed   int                   `json:"failed"`
}

// runChild runs one workload in a process of its own, as the driver does:
// peak RSS is a property of a process, and a heap another workload grew is
// not this workload's set-up.
func runChild(w string, seed int64, seconds float64, traced, smoke bool) (*childDoc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w, err)
	}
	first, _, _ := bytes.Cut(out, []byte("\n"))
	doc := &childDoc{}
	if err := json.Unmarshal(first, doc); err != nil {
		return nil, fmt.Errorf("%s: reading the child's document: %w", w, err)
	}
	return doc, nil
}

// runCheck is the benchmark checking itself: every workload runs twice
// untraced, in alternating order (forward then reverse, so no workload always
// follows the same neighbour), and every end-to-end metric of the second run
// must be within its bound of the first. A third, traced pass prints the
// tracing overhead per workload: how much lower the traced run's throughput
// was than the untraced mean.
func runCheck(seed int64, seconds float64, smoke bool, env environment) error {
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		Worse    float64 `json:"worse_by"`
		Bound    float64 `json:"bound"`
		OK       bool    `json:"ok"`
	}
	pass := func(order []workloadSpec, traced bool, label string) (map[string]*childDoc, error) {
		docs := make(map[string]*childDoc)
		for _, w := range order {
			doc, err := runChild(w.Name, seed, seconds, traced, smoke)
			if err != nil {
				return nil, err
			}
			docs[w.Name] = doc
			fmt.Fprintf(os.Stderr, "check: %s %s done\n", label, w.Name)
		}
		return docs, nil
	}
	reversed := make([]workloadSpec, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	first, err := pass(workloads, false, "pass 1")
	if err != nil {
		return err
	}
	second, err := pass(reversed, false, "pass 2")
	if err != nil {
		return err
	}
	traced, err := pass(workloads, true, "traced")
	if err != nil {
		return err
	}
	var rows []row
	overhead := make(map[string]float64)
	ok := true
	for _, w := range workloads {
		a, b, t := first[w.Name], second[w.Name], traced[w.Name]
		ok = ok && a.Failed == 0 && b.Failed == 0 && t.Failed == 0
		for _, m := range endToEnd {
			x, y := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			r := row{w.Name, m.Name, x, y, worse, m.Bound, worse <= m.Bound}
			ok = ok && r.OK
			rows = append(rows, r)
		}
		// A traced document carries no end-to-end block; its throughput is
		// the same statistic under the workload's own name.
		untraced := (a.EndToEnd["throughput_per_s"].Value + b.EndToEnd["throughput_per_s"].Value) / 2
		if v, has := t.Named[w.rateName]; has && untraced > 0 {
			overhead[w.Name] = (untraced - v.Value) / untraced
		}
	}
	out, err := json.MarshalIndent(map[string]any{
		"environment":               env,
		"seed":                      seed,
		"seconds":                   seconds,
		"comparisons":               rows,
		"tracing_overhead_by_share": overhead,
		"ok":                        ok,
		"claim":                     nil,
	}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !ok {
		return fmt.Errorf("check: a metric moved by more than its bound between two runs of the same commit, or an oracle failed")
	}
	return nil
}
