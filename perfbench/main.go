// Command perfbench is the repository benchmark: it times the simulator
// (two E18 datacenter-at-scale cells and the quick E1–E16 catalogue) and
// the live ngdc-serve plane, one workload per process, and prints one
// JSON result line.
//
//	perfbench -workload e18-churn -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it reports the per-layer metrics instead: the same
// passes run untraced for half the time and then traced (JSONL spans
// plus a CPU profile folded into cpu.* layers) for the other half, and
// the difference is the tracing overhead. README.md lists the metrics,
// which layer metric should move which end-to-end metric, and why each
// workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir, relative to the working directory (the repository root),
// receives the traced run's spans and CPU profile.
const outDir = ".bench_build/trace"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload. The runner calls setup
// spec.setupReps times, prepare once, then pass repeatedly; finish runs
// after the passes and adds the workload's per-layer metrics on traced
// runs.
type workload interface {
	// setup builds the workload's system and inputs from scratch once
	// and tears them down, returning the time it took.
	setup() (time.Duration, error)
	// prepare builds the state the passes share.
	prepare(b *bench) error
	// pass runs one timed unit of work, checks its outputs, and records
	// spans under parent when log is non-nil.
	pass(log *spanLog, parent int) (ops, failed int64, err error)
	// finish releases the workload's state and, on traced runs, sets
	// its per-layer metrics.
	finish(b *bench) error
}

// spec is how the runner drives a workload.
type spec struct {
	setupReps int // set-ups a run measures
	// passGroup is how many passes make one cycle over the workload's
	// inputs; a run's passes cover whole cycles.
	passGroup int
	// procs is the GOMAXPROCS the workload runs with (fewer if the host
	// has fewer CPUs). It is fixed so hosts of different sizes compare.
	procs int
}

// passStats is one measured pass.
type passStats struct {
	wall    time.Duration
	ops     int64
	alloc   uint64 // bytes allocated
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

// bench carries one run's settings, counts and metrics.
type bench struct {
	name      string
	seed      int64
	budget    time.Duration
	traced    bool
	log       *spanLog
	m         map[string]float64
	attempted int64
	failed    int64
	untraced  []passStats
	tracedP   []passStats
}

func (b *bench) set(name string, v float64) { b.m[name] = v }

// count adds one checked unit of work to the result's tallies.
func (b *bench) count(ops, failed int64) {
	b.attempted += ops
	b.failed += failed
}

func newWorkload(name string, seed int64) (workload, spec, error) {
	// The simulator workloads run on one P: a cell runs its simulated
	// processes in lockstep, one at a time, so a second P adds only
	// cross-CPU hand-offs between them. The live workload's clients,
	// server handlers and loopback work run concurrently on two.
	switch name {
	case "e18-churn":
		return &scaleWorkload{cfg: churnConfig(seed)}, spec{setupReps: 15, passGroup: 1, procs: 1}, nil
	case "e18-fanout":
		return &scaleWorkload{cfg: fanoutConfig(seed)}, spec{setupReps: 15, passGroup: 1, procs: 1}, nil
	case "catalogue":
		return newCatalogue(seed), spec{setupReps: 5, passGroup: catalogueSeeds, procs: 1}, nil
	case "live-mixed":
		return newLive(seed), spec{setupReps: 101, passGroup: 1, procs: 2}, nil
	}
	return nil, spec{}, fmt.Errorf("unknown workload %q (want e18-churn, e18-fanout, catalogue or live-mixed)", name)
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: e18-churn, e18-fanout, catalogue or live-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds of measured passes")
	traceOn := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	cold := flag.Bool("cold", false, "run one untimed catalogue pass and exit (the catalogue's cold-start set-up)")
	rss := flag.Bool("rss", false, "run the workload's warm-up and one pass, then print this process's peak resident set in KiB (the peak_rss_mb probe)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		flag.Usage()
		return 2
	}
	if *cold {
		*name = "catalogue"
	}
	w, sp, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(sp.procs, runtime.NumCPU()))
	if *cold {
		if _, _, err := w.pass(nil, 0); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *rss {
		kib, err := rssProbe(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(kib)
		return 0
	}
	b := &bench{
		name:   *name,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traceOn == 1,
		m:      map[string]float64{},
	}
	res, err := b.run(w, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed their checks\n", b.name, b.failed, b.attempted)
		return 1
	}
	return 0
}

func (b *bench) run(w workload, sp spec) (result, error) {
	if b.traced {
		b.log = newSpanLog()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return result{}, err
		}
	}
	var setups []float64
	for i := 0; i < sp.setupReps; i++ {
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if err := w.prepare(b); err != nil {
		return result{}, err
	}
	// The warm-up pass fills caches and grows the heap; it is checked
	// but not timed.
	runtime.GC()
	ops, failed, err := w.pass(nil, 0)
	if err != nil {
		return result{}, fmt.Errorf("warm-up pass: %w", err)
	}
	b.count(ops, failed)

	var shares map[string]float64
	if !b.traced {
		if b.untraced, err = b.passes(w, sp, b.budget, nil); err != nil {
			return result{}, err
		}
	} else {
		if b.untraced, err = b.passes(w, sp, b.budget/2, nil); err != nil {
			return result{}, err
		}
		prof, err := startProfile(b.file("pprof"))
		if err != nil {
			return result{}, err
		}
		b.tracedP, err = b.passes(w, sp, b.budget/2, b.log)
		if err != nil {
			prof.abort()
			return result{}, err
		}
		if shares, err = prof.stop(); err != nil {
			return result{}, err
		}
	}
	if err := w.finish(b); err != nil {
		return result{}, err
	}

	if b.traced {
		b.layerMetrics(shares)
		if err := b.log.write(b.file("jsonl")); err != nil {
			return result{}, err
		}
	} else {
		b.set("setup_s", median(setups))
		b.set("wall_s", b.wall())
		// Allocation is fixed by the inputs, so its mean over whole cycles
		// is exact where a median would pick one input's figure.
		b.set("alloc_mb", meanOf(b.untraced, func(p passStats) float64 { return float64(p.alloc) / (1 << 20) }))
		kib, err := peakRSS(b.name, b.seed)
		if err != nil {
			return result{}, fmt.Errorf("peak RSS probe: %w", err)
		}
		b.set("peak_rss_mb", float64(kib)/1024)
	}
	return b.result()
}

// minPasses keeps a median meaningful when single passes are long.
const minPasses = 3

// passes runs timed passes until d has elapsed, at least minPasses have
// run, and they cover whole cycles of the workload's inputs.
func (b *bench) passes(w workload, sp spec, d time.Duration, log *spanLog) ([]passStats, error) {
	var out []passStats
	var before, after runtime.MemStats
	g := sp.passGroup
	start := time.Now()
	for len(out) < max(minPasses, g) || time.Since(start) < d || len(out)%g != 0 {
		// Every pass starts from a collected heap, so where the previous
		// pass left the collector does not leak into this one's time.
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		id := 0
		if log != nil {
			// The pass span is added first so its children can name it;
			// its end is patched in once the pass is over.
			id = log.add(0, "pass", t0, t0, map[string]any{"workload": b.name, "seed": b.seed, "n": len(out)})
		}
		ops, failed, err := w.pass(log, id)
		t1 := time.Now()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(out), err)
		}
		log.end(id, t1, map[string]any{"ops": ops, "failed": failed})
		b.count(ops, failed)
		out = append(out, passStats{
			wall:    t1.Sub(t0),
			ops:     ops,
			alloc:   after.TotalAlloc - before.TotalAlloc,
			mallocs: after.Mallocs - before.Mallocs,
			gcs:     after.NumGC - before.NumGC,
			pauseNs: after.PauseTotalNs - before.PauseTotalNs,
		})
	}
	return out, nil
}

func meanOf(ps []passStats, f func(passStats) float64) float64 {
	sum := 0.0
	for _, p := range ps {
		sum += f(p)
	}
	return sum / float64(len(ps))
}

// wall is the median untraced pass time in seconds.
func (b *bench) wall() float64 {
	return medianOf(b.untraced, func(p passStats) float64 { return p.wall.Seconds() })
}

func medianOf(ps []passStats, f func(passStats) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// file names this run's trace output of the given extension.
func (b *bench) file(ext string) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d.%s", b.name, b.seed, ext))
}

// layerMetrics sets the per-layer metrics every workload shares: cpu
// shares, Go runtime memory, and the traced/untraced wall comparison.
func (b *bench) layerMetrics(shares map[string]float64) {
	for _, l := range cpuLayers {
		b.set("cpu."+l, shares[l])
	}
	traced := medianOf(b.tracedP, func(p passStats) float64 { return p.wall.Seconds() })
	b.set("bench.passes", float64(len(b.untraced)+len(b.tracedP)))
	b.set("trace.wall_s", traced)
	b.set("trace.overhead_s", traced-b.wall())
	b.set("go.gc_cycles", medianOf(b.untraced, func(p passStats) float64 { return float64(p.gcs) }))
	b.set("go.gc_pause_us", medianOf(b.untraced, func(p passStats) float64 { return float64(p.pauseNs) / 1e3 }))
	b.set("go.allocs_per_req", medianOf(b.untraced, func(p passStats) float64 {
		return float64(p.mallocs) / float64(max(p.ops, 1))
	}))
}

// result assembles the output line: every metric the mode reports, in
// its unit, with metrics a workload does not exercise reading 0.
func (b *bench) result() (result, error) {
	defs := endToEnd
	if b.traced {
		defs = perLayer()
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := b.m[d.name]
		if v != v { // NaN: a metric computed from nothing
			return result{}, fmt.Errorf("metric %s is not a number", d.name)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range b.m {
		if _, ok := ms[name]; !ok {
			return result{}, fmt.Errorf("metric %s is set but not reported in this mode", name)
		}
	}
	return result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
	}, nil
}

// peakRSS runs the workload's RSS probe (-rss) in a child process and
// returns its peak resident set in KiB. The timed passes do not set the
// figure: their count depends on how fast they run, and a workload that
// keeps memory from pass to pass would read larger the faster it ran.
func peakRSS(name string, seed int64) (int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-rss", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
}

// rssProbe runs prepare, a warm-up and one pass — the same work whatever
// --seconds is — and returns this process's peak resident set in KiB.
func rssProbe(w workload) (int64, error) {
	b := &bench{m: map[string]float64{}}
	if err := w.prepare(b); err != nil {
		return 0, err
	}
	for i := 0; i < 2; i++ {
		runtime.GC()
		ops, failed, err := w.pass(nil, 0)
		if err != nil {
			return 0, err
		}
		b.count(ops, failed)
	}
	if err := w.finish(b); err != nil {
		return 0, err
	}
	if b.failed > 0 {
		return 0, fmt.Errorf("%d of %d operations failed their checks", b.failed, b.attempted)
	}
	return vmHWM()
}

// vmHWM is this process's peak resident set in KiB since it was
// exec'd. Unlike getrusage's ru_maxrss it does not inherit the peak of
// the process that exec'd it.
func vmHWM() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
