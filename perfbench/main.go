// Command perfbench measures discovery jobs and the ranked reads they
// enable, end to end and layer by layer, in one process.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload discover_local --seed 1 --seconds 10 --trace 0
//
// Workloads: discover_local (sequential core.Run against in-process
// hidden databases), job_http (the daemon path: jobs submitted over
// loopback HTTP against web upstreams, followed over SSE, then a first
// ranked read), serve_topk (an open loop of ranked reads against a
// cold-started daemon). With --trace 0 the last line of standard output
// is a JSON object holding every end_to_end metric of BENCHMARK.json;
// with --trace 1 it holds every per_layer metric, measured over
// alternating traced and untraced units of work, and a self-time table
// per layer precedes it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what a workload run is given.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for snapshot files, removed afterwards
	quick   bool   // smaller repetition counts, for the self-check
}

// duration is how long the run measures.
func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	problems          []string // oracle violations and failed operations
	e2e, layers       metrics
	table             string // traced runs: the self-time table
	notes             []string
}

func newOutcome() *outcome { return &outcome{e2e: metrics{}, layers: metrics{}} }

// fail records a failed or wrong operation (only the first few are
// kept verbatim).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"discover_local": runDiscoverLocal,
	"job_http":       runJobHTTP,
	"serve_topk":     runServeTopK,
}

// spec is the part of BENCHMARK.json the program reads: which metrics
// to print and their units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "discover_local, job_http or serve_topk")
	seed := fs.Int64("seed", 1, "seed for job order and request mixes")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics, tracing every second unit of work")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition (metric names and units)")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory root")
	quick := fs.Bool("quick", false, "fewer set-up repetitions (self-check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runMain(*name, *seed, *seconds, *trace == 1, *specPath, *work, *quick, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runMain(name string, seed int64, seconds float64, trace bool, specPath, work string, quick bool, stdout io.Writer) error {
	env, err := checkEnv()
	if err != nil {
		return err
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	fn := workloads[name]
	if fn == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v %s\n", name, seed, seconds, trace, env)
	out, err := fn(config{seed: seed, seconds: seconds, trace: trace, dir: dir, quick: quick})
	if err != nil {
		return err
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	if out.table != "" {
		fmt.Fprint(stdout, "self time by layer (traced units):\n", out.table)
	}
	printAll(stdout, "end-to-end", out.e2e)
	if trace {
		printAll(stdout, "per-layer", out.layers)
	}

	want, have := sp.EndToEnd, out.e2e
	if trace {
		want, have = sp.PerLayer, out.layers
	}
	res := result{Correct: len(out.problems) == 0 && out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics{}}
	var idle []string
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok && trace {
			// A layer this workload does not exercise reports zero.
			v, ok = metric{Unit: m.Unit}, true
			idle = append(idle, m.Name)
		}
		if !ok {
			return fmt.Errorf("metric %q of %s was not measured", m.Name, specPath)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %q is measured in %q, %s says %q", m.Name, v.Unit, specPath, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %q is %v", m.Name, v.Value)
		}
		res.Metrics[m.Name] = v
	}
	if len(idle) > 0 {
		fmt.Fprintf(stdout, "not exercised by %s (reported as 0): %s\n", name, strings.Join(idle, " "))
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func printAll(w io.Writer, title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
