package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one JSONL trace record. Spans are recorded at the benchmark's
// own call sites — around each pass and each call into a layer — so a
// span's self time is its duration minus what its children cover.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_us"`
	End    float64        `json:"end_us"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how untraced passes skip tracing.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one span and returns its ID for children to name as parent.
func (l *spanLog) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(l.t0).Nanoseconds()) / 1e3,
		Attrs: attrs,
	})
	return id
}

// end sets span id's end time and adds attrs to it, for a span opened
// before its children were known.
func (l *spanLog) end(id int, t time.Time, attrs map[string]any) {
	if l == nil {
		return
	}
	sp := &l.spans[id-1]
	sp.End = float64(t.Sub(l.t0).Nanoseconds()) / 1e3
	for k, v := range attrs {
		sp.Attrs[k] = v
	}
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// cpuLayers are the cpu.* buckets self time is folded into, named after
// the repository's packages plus the parts of the Go runtime an
// optimisation here is most likely to move. ngdc_other holds the
// remaining ngdc packages (cluster, workload, metrics, trace and the
// smaller services); other holds what no ngdc frame called.
var cpuLayers = []string{
	"sim", "go_sched", "verbs", "go_maps", "experiments", "coopcache", "lru",
	"ddss", "sockets", "dlm", "fabric", "ngdc_other", "go_gc", "serve",
	"runtime", "net", "other",
}

// ngdcLayers are the packages under ngdc/internal with a bucket of their
// own; internal/runtime is the repository's runtime abstraction, not Go's.
var ngdcLayers = map[string]bool{
	"sim": true, "verbs": true, "experiments": true, "coopcache": true, "lru": true,
	"ddss": true, "sockets": true, "dlm": true, "fabric": true, "serve": true, "runtime": true,
}

// netPkgs are the standard-library packages that carry socket I/O.
var netPkgs = map[string]bool{
	"net": true, "internal/poll": true, "syscall": true,
	"internal/runtime/syscall": true, "runtime/internal/syscall": true,
}

// runtimeHelpers are Go runtime leaves whose time belongs to whoever
// called them (copies, compares, conversions), so classify walks up to
// the caller's layer.
var runtimeHelpers = []string{
	"memmove", "memequal", "memeqbody", "cmpbody", "cmpstring", "duff",
	"concatstring", "slicebyteto", "slicerunetostring", "stringtoslice",
	"intstring", "conv", "assert", "typeAssert", "ifaceeq", "efaceeq",
	"strequal", "interequal", "nilinterequal", "f64equal", "f32equal",
	"nanotime", "walltime",
}

// gcWords mark Go runtime functions that allocate or collect memory.
var gcWords = []string{
	"gc", "mark", "scan", "sweep", "malloc", "span", "heap", "mcache",
	"mcentral", "wbbuf", "barrier", "memclrnoheap", "newobject", "newarray",
	"makeslice", "growslice", "makemap", "pagealloc", "palloc", "sysalloc",
	"scaveng", "typepointers", "nextfree", "assist",
}

// funcPkg splits a pprof function name into its import path.
func funcPkg(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// goRuntimeLayer classifies a function of Go's runtime package; ok is
// false for helpers, whose time goes to their caller.
func goRuntimeLayer(fn string) (layer string, ok bool) {
	name := strings.TrimPrefix(fn, "runtime.")
	lower := strings.ToLower(name)
	for _, h := range runtimeHelpers {
		if strings.HasPrefix(name, h) {
			return "", false
		}
	}
	switch {
	case strings.HasPrefix(name, "map") || strings.Contains(lower, "hash"):
		return "go_maps", true
	case strings.HasPrefix(name, "netpoll") || strings.HasPrefix(name, "epoll") ||
		strings.Contains(name, "pollDesc") || strings.HasPrefix(name, "poll_runtime"):
		return "net", true
	}
	for _, w := range gcWords {
		if strings.Contains(lower, w) {
			return "go_gc", true
		}
	}
	return "go_sched", true
}

// classify assigns one sampled stack (leaf first) to a cpu layer by its
// leaf's self time. Go runtime work stays in the runtime buckets and
// socket I/O goes to net; a helper leaf (a copy, a compare, the standard
// library) is charged to the first caller that is none of those.
func classify(stack []string) string {
	for _, fn := range stack {
		pkg := funcPkg(fn)
		switch {
		case pkg == "runtime":
			if l, ok := goRuntimeLayer(fn); ok {
				return l
			}
		case pkg == "internal/runtime/maps":
			return "go_maps"
		case netPkgs[pkg]:
			return "net"
		case strings.HasPrefix(pkg, "ngdc/internal/"):
			if l := strings.TrimPrefix(pkg, "ngdc/internal/"); ngdcLayers[l] {
				return l
			}
			return "ngdc_other"
		case pkg == "ngdc":
			return "ngdc_other"
		case pkg == "main":
			return "other"
		}
	}
	return "other"
}

// foldTraces reads `go tool pprof -traces` output and returns each cpu
// layer's share of sampled self time in percent (every layer present,
// shares summing to 100) and the total sampled time.
func foldTraces(r io.Reader) (shares map[string]float64, total time.Duration, err error) {
	byLayer := map[string]time.Duration{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var (
		inBody bool
		value  time.Duration
		stack  []string
	)
	flush := func() {
		if len(stack) > 0 {
			byLayer[classify(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		f := strings.Fields(line)
		if !inBody || len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			if value, err = time.ParseDuration(f[0]); err != nil {
				return nil, 0, fmt.Errorf("pprof traces: %w", err)
			}
			stack = append(stack, f[1])
			continue
		}
		stack = append(stack, f[0])
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	shares = make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return shares, total, nil
}

// profiler wraps one runtime/pprof CPU profile over the traced passes.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

// abort ends the profile of a failed run; its file is left as written.
func (p *profiler) abort() {
	pprof.StopCPUProfile()
	p.f.Close()
}

// stop ends the profile and folds it into cpu layer shares with the
// installed `go tool pprof`.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, p.path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, errb.String())
	}
	shares, _, err := foldTraces(&out)
	return shares, err
}
