package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"

	"vsystem/internal/trace"
	"vsystem/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}, {0.55, 6}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	// Rank ceil(0.95·200) = 190 leaves exactly ten samples beyond p95.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := highestTail(c.n); p > 0 && c.n-nearestRank(p, c.n) < minTail {
			t.Errorf("highestTail(%d) = %v leaves %d beyond", c.n, p, c.n-nearestRank(p, c.n))
		}
	}
}

func TestTallyCountsUnfinishedAsFailed(t *testing.T) {
	errBoom := errors.New("boom")
	spans := []span{
		{Name: "job", Parent: -1},                                          // not an operation
		{Name: "exec", Parent: 0, Done: true},                              // ok
		{Name: "wait", Parent: 0, Done: true, Err: errBoom},                // failed
		{Name: "exec", Parent: 0, Done: true},                              // ok
		{Name: "wait", Parent: 0},                                          // unfinished: failed
		{Name: "migrate", Parent: 0, Done: true},                           // ok
		{Name: "migrate", Parent: 0, Done: true, Err: errBoom, Gone: true}, // program had exited: not a failure
		{Name: "migrate", Parent: 0},                                       // unfinished: failed
		{Name: "select", Parent: 1, Done: true},                            // traced child, not counted
	}
	got := tally(spans)
	if want := (opTally{Attempted: 7, Failed: 3}); got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if s := got.share(); s != 3.0/7 {
		t.Errorf("share = %v, want 3/7", s)
	}
	if s := (opTally{}).share(); s != 0 {
		t.Errorf("empty share = %v, want 0", s)
	}
}

func TestMetricNameCharset(t *testing.T) {
	good := []metricDef{
		{"start_p50_ms", "ms", "lower"}, {"host_share.sim", "ratio", "lower"},
		{"9a-b.c_d", "1/s", "higher"}, {"x", "count/vs", "lower"}, {"y", "%", "lower"},
	}
	if err := checkMetricDefs(good); err != nil {
		t.Errorf("good names rejected: %v", err)
	}
	long := ""
	for len(long) < 65 {
		long += "a"
	}
	for _, bad := range [][]metricDef{
		{{"_lead", "ms", "lower"}},
		{{".lead", "ms", "lower"}},
		{{"has space", "ms", "lower"}},
		{{"slash/name", "ms", "lower"}},
		{{long, "ms", "lower"}},
		{{"", "ms", "lower"}},
		{{"ok", "", "lower"}},
		{{"ok", "seventeen-chars-x", "lower"}},
		{{"ok", "m s", "lower"}},
		{{"dup", "ms", "lower"}, {"dup", "s", "lower"}},
	} {
		if err := checkMetricDefs(bad); err == nil {
			t.Errorf("checkMetricDefs(%+v) accepted", bad)
		}
	}
	if err := checkMetricDefs(concat(endToEnd, perLayer)); err != nil {
		t.Errorf("the benchmark's own metrics: %v", err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's:\n%+v\n%+v", bj.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := findScenario(w.Name); !ok {
			t.Errorf("workload %q has no scenario", w.Name)
		}
	}
	if len(names) != len(scenarios) {
		t.Errorf("BENCHMARK.json lists %v, the program has %d scenarios", names, len(scenarios))
	}
}

func TestArrivalsStratified(t *testing.T) {
	classes := mixedClasses()
	a := arrivals(classes, 240, 4, 7)
	b := arrivals(classes, 240, 4, 7)
	c := arrivals(classes, 240, 4, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same arrivals")
	}
	// Another seed reorders the same work: equal class counts, service
	// multisets and stream length.
	work := func(arr []workload.Arrival) ([]uint32, [2]int) {
		var ms []uint32
		var n [2]int
		for _, x := range arr {
			ms = append(ms, x.ServiceMs)
			n[x.Class]++
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		return ms, n
	}
	msA, nA := work(a)
	msC, nC := work(c)
	if !reflect.DeepEqual(msA, msC) || nA != nC {
		t.Errorf("seeds offer different work: %v vs %v", nA, nC)
	}
	if nA != [2]int{168, 72} {
		t.Errorf("class counts %v, want the 0.7/0.3 split of 240", nA)
	}
	if d := a[len(a)-1].At - c[len(c)-1].At; d < -1e6 || d > 1e6 {
		t.Errorf("stream lengths differ by %v", d)
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
}

// TestHeldOutSeed runs the failover workload — the one with a fault
// schedule — twice at a seed never used while the benchmark was tuned:
// the run must be reproducible from the seed alone and pass its own
// output checks there too.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the failover workload twice")
	}
	const heldOut = 90210
	var digests []string
	for i := 0; i < 2; i++ {
		b := failover(heldOut)
		b.run()
		if bad := b.check(); len(bad) > 0 {
			t.Fatalf("run %d: %v", i, bad)
		}
		if len(b.kills) != 2 {
			t.Errorf("run %d: %d leader kills, want 2", i, len(b.kills))
		}
		if b.c.Trace.Count(trace.EvHostCrash) < 10 {
			t.Errorf("run %d: only %d host crashes", i, b.c.Trace.Count(trace.EvHostCrash))
		}
		digests = append(digests, b.digest())
		b.teardown()
	}
	if digests[0] != digests[1] {
		t.Errorf("held-out seed %d: digests %v differ", heldOut, digests)
	}
}
