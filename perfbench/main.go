// Command perfbench is the repository's end-to-end benchmark: four seeded
// workloads driven through the program's public APIs — the rlservd
// decision and placement daemon over HTTP, a training epoch, and a fleet
// run — with every answer checked. See README.md for the metrics, the
// workloads and why they were chosen.
//
//	perfbench --workload decide-replay --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics. With --trace 1
// it measures the same workload untraced, then again with benchmark-side
// wrappers around every layer call, and prints the per-layer metrics plus
// the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// workDir holds what a run writes (checkpoint dirs, the fsync probe file,
// span dumps): a directory inside the checkout the benchmark runs from.
const workDir = ".bench_build/run"

// runConfig is what every workload receives.
type runConfig struct {
	seed int64
	// seconds is how long each measured phase runs.
	seconds float64
	trace   bool
	// dir is this run's private scratch directory under workDir.
	dir string
}

// measured is one metric value with its unit and the number of samples
// it was computed from.
type measured struct {
	value   float64
	unit    string
	samples int
}

// report is a workload's outcome.
type report struct {
	attempted int64
	failed    int64
	// checks lists end-of-run output checks that failed (each counts as
	// one failed op).
	checks []string
	// e2e holds the end-to-end metrics (--trace 0), layer the per-layer
	// metrics (--trace 1), info extra lines printed above them.
	e2e   map[string]measured
	layer map[string]measured
	info  []string
	spans *tracer
}

func newReport() *report {
	return &report{e2e: map[string]measured{}, layer: map[string]measured{}}
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"decide-replay", runDecide},
	{"place-durable", runPlace},
	{"train-standard", runTrain},
	{"fleet-churn-1k", runFleet},
}

// metricName is a registered metric with its unit.
type metricName struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json registers; every
// run prints exactly one of the two sets. A per-layer metric whose layer
// the workload never reaches reads 0 with 0 samples.
var endToEnd = []metricName{{"ops_per_s", "1/s"}, {"p50_ms", "ms"}, {"setup_s", "s"}, {"mem_peak_mb", "MB"}}

var perLayer = []metricName{
	{"serve.transport_ms", "ms"}, {"ref.http_floor_ms", "ms"}, {"serve.pre_engine_ms", "ms"},
	{"serve.post_engine_ms", "ms"}, {"place.self_ms", "ms"}, {"engine.call_ms", "ms"},
	{"engine.calls_per_op", "count"}, {"engine.states_per_call", "count"}, {"engine.busy_share", "ratio"},
	{"input.visible_row_share", "ratio"}, {"input.repeat_state_share", "ratio"},
	{"wal.records", "count"}, {"wal.bytes_per_record", "B"}, {"place.deduped", "count"},
	{"ref.fsync_ms", "ms"}, {"ref.fsync_p99_ms", "ms"}, {"rl.collect_s", "s"}, {"rl.update_s", "s"},
	{"fleet.place_s", "s"}, {"sim.pick_s", "s"}, {"fleet.step_self_s", "s"}, {"fleet.forced_moves", "count"},
	{"alloc.bytes_per_op", "B"}, {"gc.cycles_per_kop", "count"}, {"trace.overhead_share", "ratio"},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (decide-replay|place-durable|train-standard|fleet-churn-1k)")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run (a traced run splits them over its two phases)")
	traceOn := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if !(*seconds > 0) || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, wl.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceOn == 1, dir: dir}
	if cfg.trace {
		// A traced run measures two phases, untraced then traced, of half
		// the run each, so it lasts about as long as an untraced one.
		cfg.seconds /= 2
	}
	rep, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if rep.spans != nil {
		path := filepath.Join(filepath.Dir(workDir), fmt.Sprintf("spans-%s-%d.json", wl.name, *seed))
		if err := rep.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d recorded (%d dropped) -> %s\n", len(rep.spans.spans), rep.spans.dropped, path)
	}
	return printReport(wl.name, cfg, rep)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints every metric by name with its unit and sample count,
// then the result object as the last line.
func printReport(name string, cfg runConfig, rep *report) int {
	failed := rep.failed + int64(len(rep.checks))
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	for _, c := range rep.checks {
		fmt.Printf("check failed: %s\n", c)
	}
	fmt.Printf("workload %s seed %d seconds %g trace %t\n", name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("%-26s %14.6g %-6s n=%d\n", "fail_ratio", float64(failed)/float64(attempted), "ratio", attempted)
	for _, line := range rep.info {
		fmt.Println(line)
	}
	out := jsonResult{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]jsonMetric{},
	}
	names, set := endToEnd, rep.e2e
	if cfg.trace {
		names, set = perLayer, rep.layer
	}
	for _, n := range names {
		m, ok := set[n.name]
		if !ok {
			m = measured{unit: n.unit}
		}
		fmt.Printf("%-26s %14.6g %-6s n=%d\n", n.name, m.value, m.unit, m.samples)
		out.Metrics[n.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// memPeak samples, while a measured phase runs, the live heap the last
// garbage collection found and keeps the peak. Live bytes do not depend on
// when the collector happens to run, so the figure repeats; the garbage a
// process carries on top of them scales with GOGC. The daemon (or trainer,
// or fleet) and the clients count; request bodies generated before the
// phase are excluded, since their size follows the seed's queue lengths
// rather than the program.
type memPeak struct {
	stop, done chan struct{}
	exclude    uint64
	peak       uint64
	samples    int
}

// startMemPeak starts sampling; exclude is the live size of pre-generated
// inputs, subtracted from the peak.
func startMemPeak(exclude uint64) *memPeak {
	debug.FreeOSMemory() // one collection, so the first sample is current
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{}), exclude: exclude}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if live := s[0].Value.Uint64(); live > m.peak {
				m.peak = live
			}
			m.samples++
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops sampling and returns the peak as mem_peak_mb.
func (m *memPeak) finish() measured {
	close(m.stop)
	<-m.done
	peak := m.peak
	if peak > m.exclude {
		peak -= m.exclude
	}
	return measured{float64(peak) / (1 << 20), "MB", m.samples}
}

// setupReps is how many times a run sets the program up; setup_s is the
// median.
const setupReps = 51

// setupTimes runs build setupReps times and returns the median wall time;
// every instance but the last is torn down. Each set-up starts from a
// collected heap, so it is not charged for earlier garbage.
func setupTimes[T any](build func() (T, error), teardown func(T)) (T, measured, error) {
	var last T
	n := setupReps
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, measured{}, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	return last, measured{value: median(durs), unit: "s", samples: n}, nil
}

// allocMeter samples allocation and GC counters around a measured phase.
type allocMeter struct{ bytes, gcs uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc, uint64(ms.NumGC)}
}

// perOp reports allocated bytes per op and GC cycles per thousand ops
// since the meter started (process-wide: daemon and client together).
func (a allocMeter) perOp(ops int64, rep *report) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops < 1 {
		ops = 1
	}
	rep.layer["alloc.bytes_per_op"] = measured{float64(ms.TotalAlloc-a.bytes) / float64(ops), "B", int(ops)}
	rep.layer["gc.cycles_per_kop"] = measured{float64(uint64(ms.NumGC)-a.gcs) * 1000 / float64(ops), "count", int(ops)}
}

// overhead records trace.overhead_share: the share of untraced throughput
// the traced run lost.
func overhead(rep *report, untraced, traced float64) {
	share := 0.0
	if untraced > 0 {
		share = 1 - traced/untraced
	}
	rep.layer["trace.overhead_share"] = measured{share, "ratio", 2}
}
