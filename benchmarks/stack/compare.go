package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// manifestJSON renders BENCHMARK.json from the tables in metrics.go, so
// the file and the binary cannot name different metrics: the test
// compares the committed file with this.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/stack/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e(s))
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}

// child runs one workload in a fresh process, so memory is clean and
// VmHWM is that workload's own, and returns its result line.
func child(name string, seed uint64, seconds, trace int) (output, error) {
	exe, err := os.Executable()
	if err != nil {
		return output{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 175*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out output
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return output{}, fmt.Errorf("%s: no result line (%v)", name, runErr)
	}
	return out, nil
}

func environment() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, kernel %s, closed loop, host loopback (no link)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)))
}

// runAll is the one command: every workload end to end and traced, every
// metric by name with its unit, non-zero exit on any failed operation.
func runAll(seed uint64, seconds int) int {
	fmt.Println("# stack benchmark:", environment())
	results := map[string]map[string]output{}
	status := 0
	for _, w := range workloads {
		results[w.Name] = map[string]output{}
		for trace, label := range []string{"end_to_end", "per_layer"} {
			out, err := child(w.Name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "stack:", err)
				status = 1
				continue
			}
			if !out.Correct {
				status = 1
			}
			results[w.Name][label] = out
		}
	}
	table := func(label string, specs []metricSpec) {
		fmt.Printf("\n%-40s %-6s", label, "unit")
		for _, w := range workloads {
			fmt.Printf(" %14s", w.Name)
		}
		fmt.Println()
		for _, s := range specs {
			fmt.Printf("%-40s %-6s", s.Name, s.Unit)
			for _, w := range workloads {
				fmt.Printf(" %14.4g", results[w.Name][label].Metrics[s.Name].Value)
			}
			fmt.Println()
		}
		fmt.Printf("%-40s %-6s", "failed_ops / attempted", "count")
		for _, w := range workloads {
			o := results[w.Name][label]
			fmt.Printf(" %14s", fmt.Sprintf("%d/%d", o.Failed, o.Attempted))
		}
		fmt.Println()
	}
	table("end_to_end", endToEnd)
	table("per_layer", perLayer)

	// Parts against the whole: the ladder rung that is the pingpong_0b
	// stack, measured in the traced run, against the untraced lap.
	whole := results["pingpong_0b"]["end_to_end"].Metrics["lap_p50_us"].Value
	rung := results["pingpong_0b"]["per_layer"].Metrics["walog.v2_tcp_wal_lap_p50_us"].Value
	fmt.Printf("\nladder rung walog.v2_tcp_wal_lap_p50_us %.2f us vs lap_p50_us@pingpong_0b %.2f us: %+.1f%%\n",
		rung, whole, 100*(ratio(rung, whole)-1))

	dir := filepath.Join(repoRoot(), "benchmarks", "stack", "out")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		data, _ := json.MarshalIndent(map[string]any{"environment": environment(), "seed": seed, "seconds": seconds, "results": results}, "", " ")
		os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
	}
	if status != 0 {
		fmt.Println("\nFAILED: operations failed or a check did not hold; see above")
	}
	return status
}

// run is one recorded end-to-end run.
type run struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func endToEndRuns(seed uint64, seconds int) ([]run, bool) {
	var out []run
	ok := true
	for _, w := range workloads {
		o, err := child(w.Name, seed, seconds, 0)
		if err != nil || !o.Correct {
			fmt.Fprintln(os.Stderr, "stack:", w.Name, "failed:", err)
			ok = false
			continue
		}
		r := run{Workload: w.Name, Seed: seed, Metrics: map[string]float64{}}
		for k, v := range o.Metrics {
			r.Metrics[k] = v.Value
		}
		out = append(out, r)
	}
	return out, ok
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction.
func worseBy(s metricSpec, a, b float64) float64 {
	if s.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// selfCheck runs the end-to-end set twice on this commit and fails if
// the two disagree by more than the benchmark's own bounds.
func selfCheck(seed uint64, seconds int) int {
	first, ok1 := endToEndRuns(seed, seconds)
	second, ok2 := endToEndRuns(seed+1, seconds)
	status := 0
	if !ok1 || !ok2 || len(first) != len(second) {
		status = 1
	}
	fmt.Println("# selfcheck:", environment())
	fmt.Printf("%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	for i := range min(len(first), len(second)) {
		for _, s := range endToEnd {
			a, b := first[i].Metrics[s.Name], second[i].Metrics[s.Name]
			d := max(worseBy(s, a, b), worseBy(s, b, a))
			verdict := ""
			if d > s.Bound {
				verdict, status = "  OUTSIDE BOUND", 1
			}
			fmt.Printf("%-14s %-14s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", first[i].Workload, s.Name, a, b, 100*d, 100*s.Bound, verdict)
		}
	}
	return status
}

// recordRuns appends n end-to-end runs per workload to a file, one JSON
// object per line, for -compare. To pair two commits, alternate their
// binaries: old -record old.jsonl -runs 1, new -record new.jsonl -runs 1,
// then new before old, ten times or more.
func recordRuns(path string, n int, seed uint64, seconds int) int {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fatal(err)
	}
	status := 0
	w := bufio.NewWriter(f)
	for i := 0; i < n; i++ {
		runs, ok := endToEndRuns(seed+uint64(i), seconds)
		if !ok {
			status = 1
		}
		for _, r := range runs {
			line, _ := json.Marshal(r)
			w.Write(append(line, '\n'))
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	return status
}

func readRuns(path string) (map[string][]run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]run{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r run
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

func quartiles(xs []float64) (q1, med, q3 float64) {
	xs = append([]float64(nil), xs...)
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// compareFiles applies the paired rule of the choosing-metrics guide to
// two recorded files, the i-th run of one paired with the i-th of the
// other. A gain needs ten pairs, wins in nine tenths of them (ties for
// neither side) and medians further apart than the parent's own
// interquartile range. A regression is a median worse than the parent's
// by more than the metric's bound; where the parent's own spread is
// wider than the bound the verdict is "unresolved", not "unchanged".
func compareFiles(oldPath, newPath string) int {
	olds, err := readRuns(oldPath)
	if err != nil {
		fatal(err)
	}
	news, err := readRuns(newPath)
	if err != nil {
		fatal(err)
	}
	status := 0
	fmt.Printf("%-14s %-14s %5s %11s %24s %24s  %s\n", "workload", "metric", "pairs", "wins/losses", "parent q1/median/q3", "change q1/median/q3", "verdict")
	names := make([]string, 0, len(olds))
	for name := range olds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pairs := min(len(olds[name]), len(news[name]))
		for _, s := range endToEnd {
			var a, b []float64
			wins, losses := 0, 0
			for i := 0; i < pairs; i++ {
				x, y := olds[name][i].Metrics[s.Name], news[name][i].Metrics[s.Name]
				a, b = append(a, x), append(b, y)
				switch d := worseBy(s, x, y); {
				case d < 0:
					wins++
				case d > 0:
					losses++
				}
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			iqr := aq3 - aq1
			verdict := "unchanged"
			switch worse := worseBy(s, amed, bmed); {
			case pairs < 10:
				verdict = "too few pairs (need 10)"
			case worse > s.Bound:
				verdict, status = "REGRESSION", 1
			case ratio(iqr, amed) > s.Bound:
				verdict = "unresolved: parent spread wider than the bound"
			case worse < 0 && wins*10 >= pairs*9 && math.Abs(bmed-amed) > iqr:
				verdict = "gain"
			}
			fmt.Printf("%-14s %-14s %5d %5d/%-5d %24s %24s  %s\n", name, s.Name, pairs, wins, losses,
				fmt.Sprintf("%.4g/%.4g/%.4g", aq1, amed, aq3), fmt.Sprintf("%.4g/%.4g/%.4g", bq1, bmed, bq3), verdict)
		}
	}
	return status
}
