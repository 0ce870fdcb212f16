package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"ngdc/internal/experiments"
)

// tracesFixture is `go tool pprof -traces` output trimmed to the shapes
// the folding must handle: own-package leaves, Go runtime leaves, helper
// leaves charged to their caller, and socket I/O.
const tracesFixture = `File: perfbench
Type: cpu
Duration: 1.22s, Total samples = 200ms (16.39%)
-----------+-------------------------------------------------------
      40ms   ngdc/internal/sim.(*eventHeap).siftDownFrom
             ngdc/internal/sim.(*Env).run
             main.main
-----------+-------------------------------------------------------
      30ms   runtime.chanrecv
             ngdc/internal/sim.(*Proc).park (inline)
             ngdc/internal/experiments.runScaleCell
-----------+-------------------------------------------------------
      20ms   runtime.duffcopy
             ngdc/internal/verbs.(*Device).Write
             ngdc/internal/experiments.(*scaleCache).runSpill
-----------+-------------------------------------------------------
      20ms   internal/runtime/maps.(*Map).getWithKeySmall
             ngdc/internal/verbs.(*Device).connCost
-----------+-------------------------------------------------------
      10ms   runtime.memhash64
             ngdc/internal/verbs.(*Network).lookup
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             runtime.growslice
             ngdc/internal/experiments.runScaleCell
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   internal/runtime/syscall.Syscall6
             syscall.Syscall
             internal/poll.(*FD).Write
             net.(*conn).Write
             bufio.(*Writer).Flush
             ngdc/internal/runtime.(*realConn).Send
-----------+-------------------------------------------------------
      10ms   encoding/binary.bigEndian.Uint32
             ngdc/internal/runtime.(*realConn).Recv
-----------+-------------------------------------------------------
      10ms   bytes.Equal
             main.(*liveWorkload).op
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   sort.Strings
             ngdc/internal/monitor.(*Station).poll
-----------+-------------------------------------------------------
      10ms   ngdc/internal/lru.(*Cache[go.shape.int32]).Get
             ngdc/internal/experiments.(*scaleCache).serveHit
`

func TestFoldTraces(t *testing.T) {
	shares, total, err := foldTraces(strings.NewReader(tracesFixture))
	if err != nil {
		t.Fatal(err)
	}
	if total.Milliseconds() != 200 {
		t.Fatalf("total = %v, want 200ms", total)
	}
	want := map[string]float64{
		"sim": 20, "go_sched": 15, "verbs": 10, "go_maps": 15, "go_gc": 10,
		"net": 10, "runtime": 5, "other": 5, "ngdc_other": 5, "lru": 5,
	}
	sum := 0.0
	for _, l := range cpuLayers {
		got, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("cpu.%s = %v%%, want %v%%", l, got, want[l])
		}
		sum += got
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("got %d layers, want %d", len(shares), len(cpuLayers))
	}
}

func TestFoldTracesRejectsEmptyProfile(t *testing.T) {
	if _, _, err := foldTraces(strings.NewReader("File: perfbench\nType: cpu\n")); err == nil {
		t.Fatal("no error for a profile without samples")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{n: 100, p: 50, want: 50, wantOK: true},
		{n: 100, p: 99, want: 99, wantOK: false}, // one sample beyond
		{n: 999, p: 99, want: 990, wantOK: false},
		{n: 1000, p: 99, want: 990, wantOK: true}, // exactly ten beyond
		{n: 1, p: 50, want: 1, wantOK: false},
		{n: 20, p: 0, want: 1, wantOK: true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported as measured")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
}

func TestGoldenText(t *testing.T) {
	tables := "T1\n-\n1\n\nT2\n-\n2\n\n"
	tr := `{"record":"verbs","node":0}` + "\n" + `{"record":"engine","envs":3}` + "\n" + `{"record":"nic","node":0}` + "\n"
	want := "T1\n-\n1\n\nT2\n-\n2\n\n--- trace ---\n" +
		`{"record":"verbs","node":0}` + "\n" + `{"record":"nic","node":0}` + "\n"
	if got := goldenText(tables, tr); got != want {
		t.Fatalf("goldenText =\n%q\nwant\n%q", got, want)
	}
}

func TestCompareGolden(t *testing.T) {
	for _, tc := range []struct {
		got, want string
		at        int
		ok        bool
	}{
		{got: "abc\n", want: "abc\n", ok: true},
		{got: "abc\n", want: "abc\n\n\n", ok: true}, // trailing newlines in the file
		{got: "abc\n", want: "abc", ok: true},
		{got: "abd\n", want: "abc\n", at: 2},
		{got: "ab\n", want: "abc\n", at: 2},
		{got: "abc\nx\n", want: "abc\n", at: 4},
	} {
		at, ok := compareGolden(tc.got, tc.want)
		if ok != tc.ok || (!ok && at != tc.at) {
			t.Errorf("compareGolden(%q, %q) = %d, %v; want %d, %v", tc.got, tc.want, at, ok, tc.at, tc.ok)
		}
	}
}

func TestCheckCell(t *testing.T) {
	churn, fanout := churnConfig(1), fanoutConfig(1)
	good := experiments.ScaleResult{Requests: int64(churn.Requests), Hits: 90_000, SpillHits: 20_000, Spills: 30_000, CacheFrac: 0.05, CacheEvictions: 36_000}
	if msg := checkCell(good, churn); msg != "" {
		t.Fatalf("consistent churn cell rejected: %s", msg)
	}
	for _, tc := range []struct {
		name string
		cfg  experiments.ScaleConfig
		edit func(*experiments.ScaleResult)
	}{
		{"short", churn, func(r *experiments.ScaleResult) { r.Requests-- }},
		{"spill hits above hits", churn, func(r *experiments.ScaleResult) { r.SpillHits = r.Hits + 1 }},
		{"spill with spill off", fanout, func(r *experiments.ScaleResult) {
			r.Requests, r.CacheFrac, r.CacheEvictions = int64(fanout.Requests), 1, 0
		}},
		{"exact slabs evicting", fanout, func(r *experiments.ScaleResult) {
			r.Requests, r.CacheFrac, r.Spills, r.SpillHits = int64(fanout.Requests), 1, 0, 0
		}},
	} {
		r := good
		tc.edit(&r)
		if msg := checkCell(r, tc.cfg); msg == "" {
			t.Errorf("%s: not caught", tc.name)
		}
	}
}

// TestCatalogueIDs keeps the exp.* metric names in step with the
// catalogue the workload renders.
func TestCatalogueIDs(t *testing.T) {
	var ids []string
	for _, e := range newCatalogue(1).exps {
		ids = append(ids, e.ID)
	}
	if strings.Join(ids, ",") != strings.Join(catalogueIDs, ",") {
		t.Fatalf("catalogue renders %v, metrics name %v", ids, catalogueIDs)
	}
	for _, e := range experiments.All() {
		if e.ID == "E18" && !e.GoldenExcluded {
			t.Fatal("E18 would run inside the catalogue workload")
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (def{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
