// Command benchab compares the EXT-LAYERS benchmark between a base
// commit and the working tree in alternating pairs:
//
//	benchab -base HEAD~1 -pairs 10 -seconds 30
//	benchab -base main -workloads crawl-large -seed 5
//
// It checks out -base as a git worktree under .bench_build/ab-base,
// then for each workload runs `bash extlayers/run.sh` -pairs times on
// each side, alternating which side goes first, with the same seed and
// run length on both. For every metric it prints each side's median
// and quartiles and the fraction of pairs the working tree won (ties
// count for neither side), using BENCHMARK.json to know which
// direction is better. Every run's result line is appended to
// .bench_build/ab/runs.jsonl. It applies no thresholds: reading the
// numbers against the pairing rule is left to the reader.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// result is the JSON object on the last stdout line of one run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// spec is the part of BENCHMARK.json that says which direction of
// each metric is better.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "HEAD", "git ref to compare the working tree against")
	pairs := fs.Int("pairs", 10, "runs per side and workload")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	seed := fs.Int64("seed", 1, "workload seed, the same on both sides")
	workloads := fs.String("workloads", "crawl-large fleet-mixed live-edit", "space-separated workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pairs < 1 {
		return fmt.Errorf("-pairs must be at least 1")
	}
	top, err := output(".", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	head := strings.TrimSpace(top)
	var sp spec
	raw, err := os.ReadFile(filepath.Join(head, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	higher := map[string]bool{}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		higher[m.Name] = m.Better == "higher"
	}

	baseDir := filepath.Join(head, ".bench_build", "ab-base")
	_, _ = output(head, "git", "worktree", "remove", "--force", baseDir) // a leftover from an interrupted run
	if _, err := output(head, "git", "worktree", "add", "--detach", baseDir, *base); err != nil {
		return err
	}
	defer func() {
		if _, err := output(head, "git", "worktree", "remove", "--force", baseDir); err != nil {
			fmt.Fprintln(stderr, "benchab: removing the base worktree:", err)
		}
	}()
	logDir := filepath.Join(head, ".bench_build", "ab")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	runs, err := os.OpenFile(filepath.Join(logDir, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer runs.Close()

	for _, w := range strings.Fields(*workloads) {
		sides := map[string][]result{}
		for i := 0; i < *pairs; i++ {
			order := []string{"base", "head"}
			if i%2 == 1 {
				order = []string{"head", "base"}
			}
			for _, side := range order {
				dir := head
				if side == "base" {
					dir = baseDir
				}
				fmt.Fprintf(stderr, "benchab: %s pair %d/%d: %s\n", w, i+1, *pairs, side)
				res, line, err := runOnce(dir, w, *seed, *seconds, filepath.Join(logDir, w+"-"+side+".log"))
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", w, side, i+1, err)
				}
				fmt.Fprintf(runs, "{\"workload\":%q,\"side\":%q,\"pair\":%d,\"seed\":%d,\"result\":%s}\n", w, side, i+1, *seed, line)
				sides[side] = append(sides[side], res)
			}
		}
		fmt.Fprintf(stdout, "%s: %d pairs, seed %d, %g s per run (base %s vs working tree)\n", w, *pairs, *seed, *seconds, *base)
		report(stdout, sides["base"], sides["head"], higher)
	}
	return runs.Close()
}

// runOnce runs the benchmark once in dir and parses its result line.
// Standard error goes to logPath.
func runOnce(dir, workload string, seed int64, seconds float64, logPath string) (result, string, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return result{}, "", err
	}
	defer log.Close()
	cmd := exec.Command("bash", "extlayers/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = log
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	line := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return result{}, "", fmt.Errorf("no result line (run error: %v; see %s)", runErr, logPath)
	}
	if runErr != nil || !res.Correct {
		return result{}, "", fmt.Errorf("%d of %d ops failed (run error: %v; see %s)", res.Failed, res.Attempted, runErr, logPath)
	}
	return res, line, nil
}

// report prints one row per metric: each side's median and quartiles
// and how many pairs the working tree won.
func report(w io.Writer, base, head []result, higher map[string]bool) {
	var names []string
	for name := range base[0].Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "  %-28s %-6s %30s %30s %10s\n", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "head wins")
	for _, name := range names {
		b, h := values(base, name), values(head, name)
		wins := 0
		for i := range b {
			if (higher[name] && h[i] > b[i]) || (!higher[name] && h[i] < b[i]) {
				wins++
			}
		}
		fmt.Fprintf(w, "  %-28s %-6s %30s %30s %10s\n", name, base[0].Metrics[name].Unit,
			quartiles(b), quartiles(h), fmt.Sprintf("%d/%d", wins, len(b)))
	}
}

// values collects one metric across runs, in pair order.
func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// quartiles renders the median and the first and third quartiles.
func quartiles(v []float64) string {
	s := slices.Clone(v)
	slices.Sort(s)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
}

// quantile interpolates linearly between the order statistics of the
// sorted sample s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// output runs a command in dir and returns its standard output,
// folding its standard error into the error.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return string(out), nil
}
