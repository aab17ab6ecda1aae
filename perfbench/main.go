// Command perfbench is GlobalDB's end-to-end benchmark. It runs one
// workload in-process through the public globaldb and gsql APIs with two
// closed-loop clients, checks the results, and prints its metrics by name
// with units. The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench --workload tpcc-3city|ror-3city|sql-local --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the same workload runs untraced and then traced; the
// traced run records a span around every call the benchmark makes into a
// layer, writes the spans out, prints a per-layer table and reports the
// per-layer metrics and the tracing overhead.
package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets the workload up at least minSetups times and until setupBudget
// has been spent (at most maxSetups); setup_s is the median, and the last
// cluster set up is the one measured. A cheap set-up thus gets more
// repetitions, which keeps the median of a ~40 ms set-up steady.
const (
	minSetups   = 7
	maxSetups   = 51
	setupBudget = 2 * time.Second
)

// warmup runs before every measured window and is discarded.
const warmup = time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	commit   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "tpcc-3city, ror-3city or sql-local")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for WAL files and spans")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision, printed in the host block")
	flag.Parse()
	o.trace = trace == 1
	os.Exit(run(o))
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "tpcc-3city":
		return newTPCC(false, o.seed, walDir(o.dir, o.workload)), nil
	case "ror-3city":
		return newTPCC(true, o.seed, walDir(o.dir, o.workload)), nil
	case "sql-local":
		return newSQL(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tpcc-3city, ror-3city or sql-local)", o.workload)
}

func run(o options) int {
	ctx := context.Background()
	printHost(o)
	if _, err := newWorkload(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	// The traced run reports no setup_s and sets up once.
	var w workload
	var setupS []float64
	for spent := time.Duration(0); ; {
		w, _ = newWorkload(o)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		d := time.Since(t0)
		setupS = append(setupS, d.Seconds())
		spent += d
		if o.trace || len(setupS) >= maxSetups || len(setupS) >= minSetups && spent >= setupBudget {
			break
		}
		w.close()
	}
	defer w.close()
	fmt.Printf("setup: %d run(s), median %.4f s, goroutines after %d\n", len(setupS), median(setupS), runtime.NumGoroutine())
	// Collect the earlier set-ups' clusters now rather than inside the
	// measured windows.
	runtime.GC()

	var idle float64
	if o.trace {
		idle = idleCPUPct(time.Second)
	}
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(ctx, i, o.seed)
	}
	if err := w.bind(ctx, clients); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bind:", err)
		return 1
	}
	window := time.Duration(o.seconds * float64(time.Second))
	runPhase(w, clients, warmup, false)
	// The heap is measured before the measured window: at its end it would
	// hold whatever data the run wrote, and so follow the run's throughput.
	heap := liveHeapMB()
	u := runPhase(w, clients, window, false)
	var t *phaseResult
	if o.trace {
		t = runPhase(w, clients, window, true)
	}
	var hot []int
	if o.trace {
		hot = versionCounts(w)
	}
	checkErr := w.check(ctx)

	phases := []*phaseResult{u}
	if t != nil {
		phases = append(phases, t)
	}
	res := result{Correct: checkErr == nil, Metrics: map[string]metricValue{}}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Correct = res.Correct && p.checkFails == 0
		for _, e := range p.errs {
			fmt.Println("error:", e)
		}
	}
	if checkErr != nil {
		fmt.Println("check: FAILED:", checkErr)
	} else {
		fmt.Println("check: ok")
	}

	if !o.trace {
		printEndToEnd(w, u, setupS, heap, res.Metrics)
	} else {
		path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", o.workload, o.seed))
		if err := saveSpans(path, t.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
		rows := layerTable(t.spans)
		printLayerTable(os.Stdout, rows, int(t.completed()))
		printLayers(w, u, t, rows, idle, hot, res.Metrics)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// namedMetric is one per-class median latency: the end-to-end slot it
// fills and the name it has on its workload. value, n and beyond describe
// the quiet windows' samples; whole and wholeN the whole run's.
type namedMetric struct {
	slot, name   string
	value, whole float64
	n, beyond    int
	wholeN       int
}

func (r *phaseResult) p50(slot, name string, s *samples) namedMetric {
	q := r.quietSamples(s)
	m := namedMetric{slot: slot, name: name, value: q.quantile(0.5), whole: s.quantile(0.5), n: q.n(), wholeN: s.n()}
	if q.n() > 0 {
		m.beyond = q.beyond(0.5)
	}
	return m
}

// endToEnd lists the end-to-end metrics every workload reports, in order.
// lat1..lat4 are per-class latencies whose meaning each workload defines
// (see latencies and METRICS.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
	{"lat1_ms", "ms"},
	{"lat2_ms", "ms"},
	{"lat3_ms", "ms"},
	{"lat4_ms", "ms"},
}

func printEndToEnd(w workload, r *phaseResult, setupS []float64, heap float64, out map[string]metricValue) {
	done := float64(r.completed())
	all := r.quietSamples(&r.all)
	vals := map[string]float64{
		"setup_s":       median(setupS),
		"ops_per_s":     r.quietRate(),
		"p95_ms":        all.quantile(0.95),
		"cpu_ms_per_op": r.quietCPU(),
		"live_heap_mb":  heap,
	}
	fmt.Printf("run: %.2fs, %d attempted, %d completed, %d failed, %d attempts; quiet windows %v of %d\n",
		r.elapsed.Seconds(), r.attempted, r.completed(), r.failed, r.attempts, r.quiet(), windows)
	steal, rate := make([]string, windows), make([]string, windows)
	for i := range steal {
		lo, hi := r.bounds(i)
		steal[i] = fmt.Sprintf("%.0f", r.stealPct(i))
		rate[i] = fmt.Sprintf("%.0f", float64(completedIn(&r.all, lo, hi))/r.duration(i))
	}
	fmt.Printf("  windows steal%%: %s\n  windows ops/s:  %s\n", strings.Join(steal, " "), strings.Join(rate, " "))
	fmt.Printf("  %-24s %12s %12s\n", "", "quiet", "whole run")
	fmt.Printf("  %-24s %12s %12.4f %%   (%d of %d failed)\n", "fail_pct", "",
		100*ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	fmt.Printf("  %-24s %12.4f %12.4f 1/s\n", "ops_per_s", vals["ops_per_s"], done/r.elapsed.Seconds())
	fmt.Printf("  %-24s %12.4f %12.4f ms\n", "cpu_ms_per_op", vals["cpu_ms_per_op"], ratio(float64(r.cpu)/1e6, done))
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Printf("  %-24s %12.4f %12.4f ms  n=%d beyond=%d (whole run n=%d beyond=%d)\n", fmt.Sprintf("p%.0f_ms", 100*q),
			all.quantile(q), r.all.quantile(q), all.n(), all.beyond(q), r.all.n(), r.all.beyond(q))
	}
	keys := make([]string, 0, len(r.count))
	for k := range r.count {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  counter %s=%.0f\n", k, r.count[k])
	}
	for _, m := range w.latencies(r) {
		vals[m.slot] = m.value
		fmt.Printf("  %-24s %12.4f %12.4f ms  n=%d beyond=%d (whole run n=%d)  = %s\n", m.name, m.value, m.whole, m.n, m.beyond, m.wholeN, m.slot)
	}
	for _, m := range endToEnd {
		v := vals[m.name]
		fmt.Printf("%-24s %12.4f %s\n", m.name, v, m.unit)
		out[m.name] = metricValue{Value: finite(v), Unit: m.unit}
	}
}

// finite keeps the JSON line valid when a class had no samples.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// saveSpans writes the spans as gzipped JSON lines.
func saveSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := writeSpans(zw, spans); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printHost(o options) {
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), o.commit)
	fmt.Printf("workload: %s seed=%d seconds=%v trace=%v clients=%d\n", o.workload, o.seed, o.seconds, o.trace, numClients)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
