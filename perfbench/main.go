// Command perfbench is the repository's end-to-end benchmark. It drives the
// verifier only through its public entry points — core.VerifySource for the
// paper's local workloads, service.Client against an in-process HTTP server
// for the service round trip — and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it runs
// the separate traced pass that calls each layer in turn and reports the
// per-layer metrics. README.md lists the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings.
type run struct {
	seed   uint64
	window time.Duration
	trace  bool
	// spans collects the traced pass's spans (nil on untraced runs).
	spans   *spanLog
	metrics map[string]metric
	// notes are the human-readable lines printed before the result line.
	notes []string
	// attempted and failed accumulate over every unit of work; errs keeps
	// the first few failure messages for standard error.
	attempted, failed int
	errs              []string
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed unit of work (an error, a refusal or a wrong
// verdict).
func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*run) error{
	"fig9c-rules":   runFig9c,
	"fig9a-tables":  runFig9a,
	"corpus-matrix": runCorpus,
	"service-mix":   runService,
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig9c-rules, fig9a-tables, corpus-matrix or service-mix")
	seed := flag.Int64("seed", -1, "workload seed (required): feeds every input generator")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <fig9c-rules|fig9a-tables|corpus-matrix|service-mix> --seed <n> [--seconds <s>] [--trace 0|1]")
		os.Exit(2)
	}
	r := &run{
		seed:    uint64(*seed),
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		metrics: map[string]metric{},
	}
	if r.trace {
		r.spans = newSpanLog()
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	if r.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		r.note("spans: %d written to %s", len(r.spans.spans), path)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// ------------------------------------------------------------- timing --

// timeSetup runs setup reps times, reporting the median wall time as
// setup_s and returning the last run's product; teardown releases every
// earlier product (nil when there is nothing to release).
func timeSetup[T any](r *run, reps int, setup func() (T, error), teardown func(T)) (T, error) {
	var out T
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown(out)
		}
		t0 := time.Now()
		v, err := setup()
		ds = append(ds, time.Since(t0))
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		out = v
	}
	// setup_s is an end-to-end metric; a traced run reports only the
	// per-layer ones.
	if !r.trace {
		r.set("setup_s", median(ds).Seconds(), "s")
	}
	r.note("setup_s: median of %d set-ups = %.6g s", reps, median(ds).Seconds())
	return out, nil
}

// loop is a closed-loop load generator's outcome.
type loop struct {
	lat     []time.Duration // per successful call, entry to checked verdict
	elapsed time.Duration   // from the first call to the last return
}

// closedLoop runs callers concurrent callers, each issuing its next call
// only after the previous one returned, until window has passed since
// the start; calls in flight at the deadline complete and count. do
// returns the call's latency, timed by the caller so that preparing the
// next input stays off the clock, or an error, which r records.
func closedLoop(r *run, callers int, window time.Duration, do func(caller int) (time.Duration, error)) loop {
	var mu sync.Mutex
	var out loop
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < window {
				d, err := do(c)
				mu.Lock()
				r.attempted++
				if err != nil {
					r.fail(err)
				} else {
					out.lat = append(out.lat, d)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// report sets the latency and throughput end-to-end metrics from l.
func (r *run) report(l loop, callers int) {
	if len(l.lat) == 0 {
		r.fail(fmt.Errorf("no call completed in the window"))
		return
	}
	p50 := median(l.lat)
	tail, label := tailPercentile(l.lat)
	r.set("verdict_p50_s", p50.Seconds(), "s")
	r.set("verdict_tail_s", tail.Seconds(), "s")
	r.set("throughput_per_s", float64(len(l.lat))/l.elapsed.Seconds(), "1/s")
	r.note("closed loop, %d caller(s): %d verdicts in %.2fs", callers, len(l.lat), l.elapsed.Seconds())
	r.note("verdict_p50_s: median of n=%d", len(l.lat))
	r.note("verdict_tail_s: %s of n=%d (the highest percentile with at least ten samples beyond it)", label, len(l.lat))
	s := sorted(l.lat)
	var parts []string
	for _, q := range []float64{25, 50, 75, 90, 95, 99} {
		parts = append(parts, fmt.Sprintf("p%g=%.6g", q, s[rank(len(s), q)-1].Seconds()))
	}
	r.note("verdict percentiles (s): %s max=%.6g", strings.Join(parts, " "), s[len(s)-1].Seconds())
}

// reportFailures prints failed_frac, which the result line carries as
// failed ÷ attempted.
func (r *run) reportFailures() {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.note("failed_frac: %g (%d failed of %d attempted)", frac, r.failed, r.attempted)
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or zero for no samples.
func median[T ~int64 | ~float64](xs []T) T {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted[T ~int64 | ~float64](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first. A fixed ladder keeps the reported percentile the same from run
// to run of a workload, so tails stay comparable.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50, 25}

// tailPercentile returns the highest ladder percentile (nearest rank)
// that has at least ten samples beyond it, and its label. When no ladder
// percentile qualifies the minimum stands in, labelled as such.
func tailPercentile(ds []time.Duration) (time.Duration, string) {
	s := sorted(ds)
	n := len(s)
	for _, q := range tailLadder {
		if k := rank(n, q); k >= 1 && n-k >= 10 {
			return s[k-1], fmt.Sprintf("p%g", q)
		}
	}
	return s[0], "p0 (minimum: no ladder percentile has ten samples beyond it)"
}

// rank is the nearest-rank position (1-based) of percentile q among n
// sorted samples.
func rank(n int, q float64) int { return int(math.Ceil(q / 100 * float64(n))) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ----------------------------------------------------------- peak heap --

// heapSampler tracks the Go heap in use by objects, read every two
// milliseconds from runtime/metrics (no stop-the-world). It keeps the
// peak of each one-second window; peak_heap_mb is the median of those
// peaks, the heap high-water mark the workload reaches again and again,
// which a single extreme sample would make depend on where the
// collector's cycles happen to fall.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		windowEnd := time.Now().Add(time.Second)
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			now := time.Now()
			if now.After(windowEnd) {
				h.peaks = append(h.peaks, float64(peak))
				peak, windowEnd = 0, now.Add(time.Second)
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and sets peak_heap_mb.
func (h *heapSampler) end(r *run) {
	close(h.stop)
	<-h.done
	r.set("peak_heap_mb", median(h.peaks)/1e6, "MB")
	r.note("peak_heap_mb: median of %d one-second peaks of the heap in use", len(h.peaks))
}

// -------------------------------------------------------------- layers --

// layerNames lists every per-layer metric with its unit, in report order;
// a traced run reports all of them, zero where its workload does not
// reach the layer.
var layerNames = []struct{ name, unit string }{
	{"p4.parse_s", "s"}, {"p4.check_s", "s"}, {"translate.translate_s", "s"},
	{"opt.apply_s", "s"}, {"slicer.slice_s", "s"}, {"slicer.refused", "count"},
	{"submodel.split_s", "s"},
	{"sym.execute_s", "s"}, {"sym.self_s", "s"}, {"sym.paths", "count"},
	{"sym.forks", "count"}, {"sym.instructions", "count"},
	{"sym.killed_infeasible", "count"}, {"sym.max_frontier", "count"},
	{"sym.alloc_bytes", "B"}, {"sym.gc_cycles", "count"},
	{"solver.wall_s", "s"}, {"solver.queries", "count"}, {"solver.quick_sat", "count"},
	{"solver.quick_unsat", "count"}, {"solver.memo_hits", "count"},
	{"solver.memo_hit_ratio", "ratio"},
	{"solver.full", "count"}, {"solver.bitblast_clauses", "count"},
	{"solver.session_reuse_hits", "count"}, {"solver.portfolio_fresh_wins", "count"},
	{"solver.portfolio_win_ratio", "ratio"},
	{"sat.decisions", "count"}, {"sat.conflicts", "count"}, {"sat.learned", "count"},
	{"submodel.count", "count"}, {"submodel.run_s", "s"}, {"submodel.worst_share", "ratio"},
	{"service.submit_s", "s"}, {"service.queue_wait_s", "s"}, {"service.run_s", "s"},
	{"service.wait_slack_s", "s"}, {"service.report_s", "s"}, {"service.rejected", "count"},
	{"vcache.hits", "count"}, {"vcache.misses", "count"}, {"vcache.hit_ratio", "ratio"},
	{"store.appends_per_job", "count"}, {"store.snapshots", "count"},
	{"trace.throughput_ratio", "ratio"},
}

// setLayers reports every per-layer metric from vals (absent names are
// zero). Values must be finite.
func (r *run) setLayers(vals map[string]float64) {
	for _, l := range layerNames {
		v := vals[l.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.set(l.name, v, l.unit)
	}
	var unknown []string
	for name := range vals {
		if _, ok := r.metrics[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		panic("perfbench: unlisted layer metrics " + strings.Join(unknown, ","))
	}
}
