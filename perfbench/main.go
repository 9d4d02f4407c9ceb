// Command perfbench is the repository benchmark. It runs one workload of
// the simulated V cluster (farm, evict or failover; see workloads.go for
// why each exists), checks the workload's outputs, and prints every metric
// by name with its unit; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones: user-visible times in
// virtual time (exact for a seed) and the simulator's speed, memory and
// set-up time in host time. With -trace 1 a traced run reports the
// per-layer metrics. METRICS.md lists them all.
//
// Usage:
//
//	perfbench -workload farm -seed 1 -seconds 30 -trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how many times an untraced run sets the workload's cluster
// up; setup_s is the median.
const setupReps = 7

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: farm, evict or failover")
	seed := flag.Int64("seed", 1, "seed of the generated arrivals, fault schedule and cluster")
	seconds := flag.Int("seconds", 20, "accepted for the benchmark interface; a run always measures the whole workload once (METRICS.md)")
	traced := flag.Int("trace", 0, "1: one traced run reporting per-layer metrics")
	flag.Parse()
	sc, ok := findScenario(*name)
	if !ok || *traced < 0 || *traced > 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload farm|evict|failover -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := checkMetricDefs(concat(endToEnd, perLayer)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	var rep report
	var err error
	if *traced == 1 {
		rep, err = measureLayers(out, sc, *seed)
	} else {
		rep = measureEndToEnd(out, sc, *seed)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// measureEndToEnd sets the workload up setupReps times (setup_s is the
// median), then runs it once at the seed. Repetition and the comparison
// of digests across runs are left to whoever runs the benchmark: a fixed
// seed reproduces every virtual-time metric and the digest exactly.
func measureEndToEnd(out *bufio.Writer, sc scenario, seed int64) report {
	var setups sample
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		b := sc.build(seed)
		setups = append(setups, b.setup.Seconds())
		b.teardown()
	}
	runtime.GC()
	b := sc.build(seed)
	host := b.run()
	u, problems := b.users(), b.check()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	vals := u.values()
	vals["vs_per_host_s"] = b.c.Sim.Now().Seconds() / host.Seconds()
	vals["host_mem_mb"] = float64(mem.Sys) / (1 << 20)
	vals["setup_s"] = percentile(setups.sorted(), 0.5)

	fmt.Fprintf(out, "workload %s seed %d: %v virtual time in %v host time\n",
		sc.name, seed, b.c.Sim.Now().Duration(), host.Round(time.Millisecond))
	for _, n := range u.sampleNotes() {
		fmt.Fprintln(out, "  "+n)
	}
	printFailures(out, u, failureCauses(b.spans))
	fmt.Fprintf(out, "  setup_s over set-ups: %v\n", fmtList(setups))
	// Every user metric, including those only the traced run carries in
	// its JSON.
	printMetrics(out, vals, concat(endToEnd, unboundUser))
	fmt.Fprintf(out, "digest %s\n", b.digest())
	for _, p := range problems {
		fmt.Fprintln(out, "INCORRECT: "+p)
	}
	return report{
		Correct: len(problems) == 0, Attempted: u.ops.Attempted, Failed: u.ops.Failed,
		Metrics: pick(vals, endToEnd),
	}
}

// measureLayers runs the workload once untraced and once traced (child
// spans from the cluster's trace bus, CPU profile on) and reports the
// per-layer metrics. Tracing must not change a single simulated number.
func measureLayers(out *bufio.Writer, sc scenario, seed int64) (report, error) {
	runtime.GC()
	bu := sc.build(seed)
	untraced := bu.run()
	du := bu.digest()
	bu.teardown()
	runtime.GC()

	b := sc.build(seed)
	b.subscribe()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.run()
	pprof.StopCPUProfile()
	b.resolveParents()
	shares, err := hostShares(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	problems := b.check()
	if d := b.digest(); d != du {
		problems = append(problems, fmt.Sprintf("traced digest %s differs from untraced %s: tracing perturbed the simulation", d, du))
	}
	vals := b.layers(traced, untraced, shares)
	u := b.users()

	fmt.Fprintf(out, "workload %s seed %d: traced run of %v virtual time, host %v traced / %v untraced\n",
		sc.name, seed, b.c.Sim.Now().Duration(), traced.Round(time.Millisecond), untraced.Round(time.Millisecond))
	for _, n := range u.sampleNotes() {
		fmt.Fprintln(out, "  "+n)
	}
	printFailures(out, u, failureCauses(b.spans))
	printMetrics(out, vals, perLayer)
	fmt.Fprintf(out, "digest %s\n", du)
	for _, p := range problems {
		fmt.Fprintln(out, "INCORRECT: "+p)
	}
	return report{
		Correct: len(problems) == 0, Attempted: u.ops.Attempted, Failed: u.ops.Failed,
		Metrics: pick(vals, perLayer),
	}, nil
}

// check collects every correctness problem of a finished run.
func (b *bench) check() []string {
	var bad []string
	u := b.users()
	if len(u.start) == 0 || len(u.turnaround) == 0 {
		bad = append(bad, "no job started and finished")
	}
	if u.ops.Attempted == 0 {
		bad = append(bad, "no operation attempted")
	}
	if b.verify != nil {
		bad = append(bad, b.verify()...)
	}
	return bad
}

// failureCauses counts failed operations by operation and cause.
func failureCauses(spans []span) []string {
	n := map[string]int{}
	for _, s := range spans {
		if s.userOp() && s.failed() {
			cause := "unfinished at the end of the run"
			if s.Done {
				cause = s.Err.Error()
			}
			n[s.Name+": "+cause]++
		}
	}
	var out []string
	for k, v := range n {
		out = append(out, fmt.Sprintf("%s (%d)", k, v))
	}
	sort.Strings(out)
	return out
}

func pick(vals map[string]float64, defs []metricDef) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func printFailures(out *bufio.Writer, u userStats, causes []string) {
	fmt.Fprintf(out, "  operations: %d attempted, %d failed\n", u.ops.Attempted, u.ops.Failed)
	for _, c := range causes {
		fmt.Fprintln(out, "  failed "+c)
	}
}

func printMetrics(out *bufio.Writer, vals map[string]float64, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-30s %14.4f %-8s (%s is better)\n", d.Name, vals[d.Name], d.Unit, d.Better)
	}
}

func fmtList(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4g", s)
}
