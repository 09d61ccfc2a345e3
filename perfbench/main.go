// Command perfbench is the repository benchmark: one command that runs
// one workload per process, checks every output for correctness, and
// prints every metric by name with its unit. BENCHMARK.json at the
// repository root declares the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics of an untraced
// measured phase. With --trace 1 it runs a shorter untraced phase, then
// a fixed amount of the same work with spans and a CPU profile, and
// reports the per-layer metrics; trace.overhead_frac compares the two
// phases' throughput. Every metric is printed as a "metric" line with
// its unit (and its sample count where it is a median or percentile),
// then a "provenance" line (num_cpu, GOMAXPROCS, kernel, Go version,
// commit), and last one JSON object with the keys correct, attempted,
// failed and metrics. Results from different num_cpu values are not
// comparable. A failed operation (a run that is not Ok or diverges
// from the paper's closed forms, a campaign that is refused, does not
// complete or streams wrong records) fails the run with exit code 1.
//
// The result line carries exactly the metrics BENCHMARK.json declares,
// and every workload produces all of them; a run that misses one
// fails without printing a result. End-to-end metrics (--trace 0):
//
//   - setup_s: median of several fresh set-ups: topologies, the first
//     pooled environments or fabric, or a server on a fresh journal and
//     its loopback listener.
//   - sim_moves_per_s: simulated agent moves per wall-clock second, the
//     median over passes of the workload's batch (serve: over rounds,
//     counting only runs not served from the cache).
//   - cpu_s: process user+sys CPU seconds per pass of the batch (serve:
//     per 100 campaigns), which shows work moved onto the second core
//     even when wall time hides it.
//   - peak_rss_mb: the process's high-water resident set.
//
// Metrics that apply to one workload only, such as serve's
// campaigns_per_s, campaign_p50_ms/p95_ms and ttfr_p50_ms/p95_ms or
// the per-protocol timings of the traced run, are printed as metric
// lines and not carried in the result line. failed_frac, failed over
// attempted operations, is printed as a line too; the result line
// carries both counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark scenario. setup may be called several
// times; each call after the first follows a teardown, so set-up time
// is a median over fresh set-ups.
type workload interface {
	setup() error
	// measure runs untraced until the deadline, adds its end-to-end
	// metrics to rep and returns its throughput (higher is better).
	measure(deadline time.Time, rep *report) float64
	// traced runs a fixed amount of work with tr recording spans, adds
	// the per-layer metrics to rep and returns the same throughput.
	traced(tr *tracer, rep *report) float64
	teardown()
}

// setupReps is how many fresh set-ups a run times; setup_s is their
// median.
var setupReps = map[string]int{"sweep": 61, "megaboard": 11, "serve": 61, "concurrent": 31}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sweep":
		return newSweep(seed), nil
	case "megaboard":
		return newMegaboard(seed), nil
	case "serve":
		return newServe(seed), nil
	case "concurrent":
		return newConcurrent(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, megaboard, serve or concurrent)", name)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep, megaboard, serve or concurrent")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 15, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer phase after a shorter untraced one")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, *name, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload: timed set-ups, the measured (or untraced
// plus traced) phase, then teardown and the leak probe.
func run(w workload, name string, seconds time.Duration, traced bool) (*report, error) {
	rep := &report{}
	baseG, baseHeap := settle()

	var setups []float64
	for i := 0; i < setupReps[name]; i++ {
		if i > 0 {
			w.teardown()
			goruntime.GC() // so one set-up's garbage does not meet the next
		}
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.addN("setup_s", median(setups), "s", len(setups))
	if !traced {
		w.measure(time.Now().Add(seconds), rep)
		if !rep.has("peak_rss_mb") { // unless the workload took its own
			rep.add("peak_rss_mb", float64(rusage().Maxrss)/1024, "MB")
		}
	} else {
		plain := w.measure(time.Now().Add(seconds/2), rep.scratch())
		if p, ok := w.(interface{ prepareTrace() error }); ok {
			if err := p.prepareTrace(); err != nil {
				return nil, fmt.Errorf("trace set-up: %w", err)
			}
		}
		tr := newTracer()
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		got := w.traced(tr, rep)
		goruntime.ReadMemStats(&m1)
		shares, err := prof.stop()
		if err != nil {
			return nil, err
		}
		if runs := rep.count("sim.runs"); runs > 0 {
			rep.add("mem.allocs_per_run", float64(m1.Mallocs-m0.Mallocs)/runs, "count")
			rep.add("mem.alloc_bytes_per_run", float64(m1.TotalAlloc-m0.TotalAlloc)/runs, "B")
		}
		rep.add("mem.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
		for _, b := range cpuBuckets {
			rep.add("cpu."+b, shares[b], "frac")
		}
		addSelfTimes(tr, rep)
		if got > 0 {
			rep.add("trace.overhead_frac", plain/got-1, "frac")
		}
		// A workload that never calls a layer did no work in it.
		for _, c := range layerCounts {
			if !rep.has(c.name) {
				rep.add(c.name, 0, c.unit)
			}
		}
	}
	w.teardown()
	g, heap := settle()
	rep.add("goroutines_leaked", float64(g-baseG), "count")
	rep.add("heap_retained_mb", (float64(heap)-float64(baseHeap))/(1<<20), "MB")
	return rep, nil
}

// settle runs two collections and reports the goroutine count and the
// live heap, the baseline and end points of the leak probe.
func settle() (goroutines int, heap uint64) {
	goruntime.GC()
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return goruntime.NumGoroutine(), m.HeapAlloc
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
	}
	return ru
}

// cpuNow returns the process's user+sys CPU seconds so far.
func cpuNow() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// metric is one named, unit-carrying value; n is the sample count of
// a percentile or median (0 when the value is not one).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report gathers a run's metrics in print order and its operation
// counts. A failed operation fails the run.
type report struct {
	attempted, failed int
	metrics           []metric
	failures          []string
	parent            *report // receives the checks of a scratch report
}

func (r *report) add(name string, v float64, unit string) { r.addN(name, v, unit, 0) }

func (r *report) addN(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, n: n})
}

// scratch returns a report whose metrics are discarded but whose
// checks still count against r.
func (r *report) scratch() *report { return &report{parent: r} }

// has reports whether a metric was added.
func (r *report) has(name string) bool {
	for _, m := range r.metrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// count returns a metric already added, or 0.
func (r *report) count(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// check records one attempted operation; a non-empty problem fails it.
func (r *report) check(problem string) {
	if r.parent != nil {
		r.parent.check(problem)
		return
	}
	r.attempted++
	if problem == "" {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, problem)
	}
}

// endToEnd and perLayer name the metrics the result line of a
// --trace 0 and a --trace 1 run carry, in BENCHMARK.json's order;
// every other metric is printed as a text line above it. Each applies
// to every workload: serve's campaign rates and latencies, like the
// per-protocol and per-call timings of single layers, do not.
var (
	endToEnd = []string{"setup_s", "sim_moves_per_s", "cpu_s", "peak_rss_mb"}
	perLayer = declaredPerLayer()
)

// layerCounts are work counts of layers only some workloads call, with
// their units; a workload that does not call the layer reports 0.
var layerCounts = []struct{ name, unit string }{
	{"netsim.messages", "count"}, {"faultlink.frames", "count"},
	{"faultlink.retransmits", "count"}, {"faultlink.wiretime", "count"},
	{"serve.cache_hits", "count"}, {"serve.cache_bytes", "B"},
	{"serve.journal_records", "count"}, {"serve.journal_compactions", "count"},
}

func declaredPerLayer() []string {
	var out []string
	for _, b := range cpuBuckets {
		out = append(out, "cpu."+b)
	}
	for _, l := range traceLayers {
		out = append(out, l+".self_frac")
	}
	out = append(out, "mem.allocs_per_run", "mem.alloc_bytes_per_run", "mem.gc_cycles",
		"sim.runs", "sim.moves", "sim.steps", "sim.agents")
	for _, c := range layerCounts {
		out = append(out, c.name)
	}
	return append(out, "goroutines_leaked", "heap_retained_mb", "trace.overhead_frac")
}

// traceLayers are the layers the benchmark records spans for, each
// around calls into that layer's public API.
var traceLayers = []string{"envpool", "strategy", "sched", "netarena", "netsim", "runtime", "serve", "http"}

// addSelfTimes adds each traced layer's self time in milliseconds as
// a text line, for the layers the workload calls, and its share of all
// spans' self time, for every layer (0 where the workload never calls
// it).
func addSelfTimes(tr *tracer, rep *report) {
	self := map[string]float64{}
	total := 0.0
	for _, l := range tr.selfTimes() {
		rep.add(l.layer+".self_ms", l.ms, "ms")
		self[l.layer] = l.ms
		total += l.ms
	}
	for _, l := range traceLayers {
		frac := 0.0
		if total > 0 {
			frac = self[l] / total
		}
		rep.add(l+".self_frac", frac, "frac")
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes one text line per metric, the failures, the provenance
// and, last, the JSON result line with the declared metrics. A
// declared metric the run did not produce is an error, and then no
// result line is printed.
func (r *report) print(f *os.File, traced bool) error {
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, p := range r.failures {
		fmt.Fprintln(f, "FAILED", p)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "metric failed_frac %g frac (n=%d)\n", failedFrac, r.attempted)
	for _, m := range r.metrics {
		if m.n > 0 {
			fmt.Fprintf(f, "metric %s %g %s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(f, "metric %s %g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, name := range declared {
		found := false
		for _, m := range r.metrics {
			if m.name == name {
				res.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("the run produced no %s", name)
		}
	}
	prov, _ := json.Marshal(provenance())
	fmt.Fprintf(f, "provenance %s\n", prov)
	line, _ := json.Marshal(res)
	fmt.Fprintf(f, "%s\n", line)
	return nil
}

// provenance identifies the machine and source a result came from;
// results from different num_cpu values are not comparable.
func provenance() map[string]any {
	var u syscall.Utsname
	kernel := ""
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		kernel = b.String()
	}
	return map[string]any{
		"num_cpu":    goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"kernel":     kernel,
		"go_version": goruntime.Version(),
		"commit":     commit(),
	}
}

// commit reads the checked-out revision from .git in the working
// directory without running git; a checkout that is not a repository
// reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// addDist adds the p50 of xs with its count and, when asked, the p95
// if at least ten samples lie beyond it.
func (r *report) addDist(prefix string, xs []float64, unit string, p95 bool) {
	r.addN(prefix+".p50", median(xs), unit, len(xs))
	if p95 && len(xs) >= 200 {
		r.addN(prefix+".p95", percentile(xs, 0.95), unit, len(xs))
	}
}
