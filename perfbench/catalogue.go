package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"ngdc/internal/experiments"
	nrt "ngdc/internal/runtime"
	"ngdc/internal/trace"
)

// goldenPath is the pinned quick catalogue, read (never written) from
// the repository root, and goldenSeed the seed it was captured with.
const (
	goldenPath = "internal/experiments/testdata/quick_catalogue.golden"
	goldenSeed = 7
)

// catalogueSeeds is how many experiment seeds a run cycles through, one
// per pass. How much a Quick experiment simulates depends on its seed;
// cycling keeps one seed's quirks from setting a whole run's median.
const catalogueSeeds = 8

// catalogueWorkload renders E1–E16 in Quick mode, one cell at a time,
// per pass. It is the only workload that runs sockets/SDP flow control,
// DDSS coherence, the lock cascades, Fig 6 cooperative caching and
// monitoring, and it runs no E18 code.
type catalogueWorkload struct {
	seed  int64   // the run's seed
	seeds []int64 // experiment seeds, derived from seed
	exps  []experiments.Experiment
	n     int // passes run so far
	// want holds each seed's tables from its first pass; every later
	// pass at that seed must render the same bytes.
	want map[int64][]string
	// secs collects each experiment's untraced Render time, and
	// firstSecs the untraced pass time at seeds[0]; neither counts the
	// warm-up pass.
	secs      map[string][]float64
	firstSecs []float64
}

func newCatalogue(seed int64) *catalogueWorkload {
	w := &catalogueWorkload{seed: seed, want: map[int64][]string{}, secs: map[string][]float64{}}
	for j := int64(0); j < catalogueSeeds; j++ {
		w.seeds = append(w.seeds, seed*catalogueSeeds+j+1)
	}
	for _, e := range experiments.All() {
		if !e.GoldenExcluded {
			w.exps = append(w.exps, e)
		}
	}
	return w
}

// catalogueOptions renders Quick mode at seed on one worker, counting
// into reg when it is non-nil.
func catalogueOptions(seed int64, reg *trace.Registry) experiments.Options {
	return experiments.Options{Seed: seed, Quick: true, Parallel: 1, ServiceOptions: nrt.ServiceOptions{Trace: reg}}
}

// setup is the catalogue's cold start: a fresh process that renders one
// pass, as every `ngdc-bench all -quick` invocation does. Work moved out
// of the warm passes into one-time initialisation shows here.
func (w *catalogueWorkload) setup() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-cold", "-seed", strconv.FormatInt(w.seed, 10))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("cold catalogue pass: %w", err)
	}
	return time.Since(t0), nil
}

// prepare checks the catalogue against the golden, byte for byte.
func (w *catalogueWorkload) prepare(b *bench) error {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	got, err := w.renderGolden()
	if err != nil {
		return err
	}
	failed := int64(0)
	if at, ok := compareGolden(got, string(want)); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: quick catalogue differs from %s at byte %d\n", goldenPath, at)
		failed = 1
	}
	b.count(1, failed)
	return nil
}

// renderGolden renders the catalogue the way TestQuickCatalogueGolden
// does: golden seed, one worker, a registry bound to every run.
func (w *catalogueWorkload) renderGolden() (string, error) {
	reg := trace.NewRegistry()
	o := catalogueOptions(goldenSeed, reg)
	var tables strings.Builder
	for _, e := range w.exps {
		tb, err := e.Render(o)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		tables.WriteString(tb.String())
		tables.WriteByte('\n')
	}
	var tr strings.Builder
	if err := reg.Snapshot().WriteJSONL(&tr); err != nil {
		return "", err
	}
	return goldenText(tables.String(), tr.String()), nil
}

// goldenText lays out rendered tables and a trace snapshot as the golden
// file holds them: the tables, a separator, then the snapshot's records
// without the engine record (its counters vary with event batching).
func goldenText(tables, traceJSONL string) string {
	var b strings.Builder
	b.WriteString(tables)
	b.WriteString("--- trace ---\n")
	for _, line := range strings.Split(traceJSONL, "\n") {
		if strings.Contains(line, `"record":"engine"`) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// compareGolden reports whether got equals the golden text want (up to
// trailing newlines) and, if not, the first byte offset that differs.
func compareGolden(got, want string) (diffAt int, ok bool) {
	want = strings.TrimRight(want, "\n") + "\n"
	if got == want {
		return 0, true
	}
	for diffAt < len(got) && diffAt < len(want) && got[diffAt] == want[diffAt] {
		diffAt++
	}
	return diffAt, false
}

func (w *catalogueWorkload) pass(log *spanLog, parent int) (ops, failed int64, err error) {
	seed := w.seeds[w.n%len(w.seeds)]
	// The runner's first pass is its untimed warm-up.
	timed := log == nil && w.n > 0
	w.n++
	want, checked := w.want[seed]
	if !checked {
		want = make([]string, len(w.exps))
		w.want[seed] = want
	}
	var total time.Duration
	for i, e := range w.exps {
		var reg *trace.Registry
		if log != nil {
			reg = trace.NewRegistry()
		}
		t0 := time.Now()
		tb, err := e.Render(catalogueOptions(seed, reg))
		t1 := time.Now()
		ops++
		if err != nil {
			return ops, failed, fmt.Errorf("%s: %w", e.ID, err)
		}
		got := tb.String()
		switch {
		case !checked:
			want[i] = got
		case got != want[i]:
			fmt.Fprintf(os.Stderr, "perfbench: %s at seed %d rendered differently from its first pass\n", e.ID, seed)
			failed++
		}
		total += t1.Sub(t0)
		if timed {
			w.secs[e.ID] = append(w.secs[e.ID], t1.Sub(t0).Seconds())
		}
		if reg == nil {
			continue
		}
		st := reg.Snapshot()
		log.add(parent, "experiment", t0, t1, map[string]any{
			"id": e.ID, "figure": e.Figure, "seed": seed, "trace": st,
		})
	}
	if timed && seed == w.seeds[0] {
		w.firstSecs = append(w.firstSecs, total.Seconds())
	}
	return ops, failed, nil
}

func (w *catalogueWorkload) finish(b *bench) error {
	if !b.traced {
		return nil
	}
	for _, id := range catalogueIDs {
		b.set("exp."+id+"_s", median(w.secs[id]))
	}
	// The layer counters come from one more, untimed pass at the run's
	// first experiment seed, so they do not depend on how many passes
	// the time allowed.
	var s trace.TraceStats
	for _, e := range w.exps {
		reg := trace.NewRegistry()
		if _, err := e.Render(catalogueOptions(w.seeds[0], reg)); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		s = s.Merge(reg.Snapshot())
	}
	b.set("sim.events", float64(s.Engine.EventsProcessed))
	// Both the time and the event count are of seeds[0]: how much a
	// Quick experiment simulates depends on its seed.
	b.set("sim.ns_per_event", median(w.firstSecs)*1e9/float64(s.Engine.EventsProcessed))
	b.set("sim.max_queue", float64(s.Engine.MaxEventQueue))
	b.set("sim.procs", float64(s.Engine.ProcsSpawned))
	var rd, wr, at, sd int64
	for _, d := range s.Devices {
		rd += d.Read.Ops
		wr += d.Write.Ops
		at += d.Atomic.Ops
		sd += d.Send.Ops
	}
	b.set("verbs.ops_read", float64(rd))
	b.set("verbs.ops_write", float64(wr))
	b.set("verbs.ops_atomic", float64(at))
	b.set("verbs.ops_send", float64(sd))
	var wire, cpu time.Duration
	for _, t := range s.Fabric {
		wire += t.Wire
		cpu += t.HostCPU
	}
	b.set("fabric.wire_us", us(wire))
	b.set("fabric.cpu_us", us(cpu))
	var busy, stall time.Duration
	for _, n := range s.NICs {
		busy += n.TxBusy
		stall += n.TxStall
	}
	b.set("nic.tx_busy_us", us(busy))
	b.set("nic.tx_stall_us", us(stall))
	var msgs, zc, bc int64
	var waits [3]time.Duration
	for _, sc := range s.Schemes {
		msgs += sc.Msgs
		zc += sc.ZeroCopyBytes
		bc += sc.BCopyBytes
		for k := range waits {
			waits[k] += sc.Stalls[k].Wait
		}
	}
	b.set("sockets.msgs", float64(msgs))
	if zc+bc > 0 {
		b.set("sockets.zerocopy_share", 100*float64(zc)/float64(zc+bc))
	}
	b.set("sockets.credit_stall_us", us(waits[trace.StallCredits]))
	b.set("sockets.pool_stall_us", us(waits[trace.StallPool]))
	b.set("sockets.window_stall_us", us(waits[trace.StallWindow]))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
