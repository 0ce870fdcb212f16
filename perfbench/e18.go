package main

import (
	"fmt"
	"os"
	"time"

	"ngdc/internal/experiments"
	"ngdc/internal/verbs"
)

// churnConfig is the e18-churn cell: a hot Zipf stream over a slab that
// holds 5% of the working set, with spill and rebalancing on, so the
// cache tier's evict → invalidate → install → spill loop runs at full
// rate and the engine handles the most events per request.
func churnConfig(seed int64) experiments.ScaleConfig {
	return experiments.ScaleConfig{
		Nodes: 256, Transport: verbs.PooledTransport(),
		Clients: 1_000_000, Requests: 128_000,
		Docs: 16384, ZipfAlpha: 1.01, CacheFrac: 0.05,
		Spill: true, Rebalance: true, Seed: seed,
	}
}

// fanoutConfig is the e18-fanout cell: 4096 nodes on fully connected RC,
// so verbs connection management (establishes, context-cache misses)
// carries the load, while exact-sized slabs keep the cache tier
// read-mostly with no evictions.
func fanoutConfig(seed int64) experiments.ScaleConfig {
	return experiments.ScaleConfig{
		Nodes: 4096, Transport: verbs.TransportConfig{},
		Clients: 1_000_000, Requests: 102_400,
		ZipfAlpha: 0.99, Seed: seed,
	}
}

// setupRequests is the request count of a set-up cell: one per load
// generator (ScaleConfig.Drivers defaults to 64), so the cell is built,
// booted and torn down but serves almost nothing.
const setupRequests = 64

// scaleWorkload times one E18 cell per pass.
type scaleWorkload struct {
	cfg experiments.ScaleConfig
	// model is the first pass's result with its host time cleared:
	// every later pass must reproduce it exactly.
	model *experiments.ScaleResult
	last  experiments.ScaleResult
}

// checkCell reports what is wrong with one cell's counters, or "".
// ScaleResult.Requests is the count served (hits plus misses), so it is
// checked against the count cfg asked for; the tier counters are checked
// against what cfg implies.
func checkCell(r experiments.ScaleResult, cfg experiments.ScaleConfig) string {
	switch {
	case r.Requests != int64(cfg.Requests):
		return fmt.Sprintf("served %d requests, want %d", r.Requests, cfg.Requests)
	case r.SpillHits > r.Hits:
		return fmt.Sprintf("%d spill hits exceed %d hits", r.SpillHits, r.Hits)
	case !cfg.Spill && r.Spills+r.SpillHits > 0:
		return fmt.Sprintf("spill is off, yet %d victims spilled and %d spill hits", r.Spills, r.SpillHits)
	case r.CacheFrac >= 1 && r.CacheEvictions > 0:
		return fmt.Sprintf("exact-sized slabs evicted %d documents", r.CacheEvictions)
	}
	return ""
}

func (w *scaleWorkload) setup() (time.Duration, error) {
	cfg := w.cfg
	cfg.Requests = setupRequests
	t0 := time.Now()
	r, err := experiments.RunScaleCell(cfg)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if msg := checkCell(r, cfg); msg != "" {
		return 0, fmt.Errorf("set-up cell: %s", msg)
	}
	return d, nil
}

func (w *scaleWorkload) prepare(*bench) error { return nil }

func (w *scaleWorkload) pass(log *spanLog, parent int) (ops, failed int64, err error) {
	t0 := time.Now()
	r, err := experiments.RunScaleCell(w.cfg)
	t1 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	ops = int64(w.cfg.Requests)
	model := r
	model.Wall = 0
	msg := checkCell(r, w.cfg)
	if msg == "" && w.cfg.CacheFrac > 0 && w.cfg.CacheFrac < 1 && r.CacheEvictions == 0 {
		msg = "capacity-bounded slabs evicted nothing"
	}
	switch {
	case w.model == nil:
		w.model = &model
	case msg == "" && model != *w.model:
		msg = "model outputs differ from the first pass"
	}
	if msg != "" {
		fmt.Fprintf(os.Stderr, "perfbench: cell check failed: %s\n", msg)
		failed = ops
	}
	w.last = r
	log.add(parent, "cell", t0, t1, map[string]any{"result": r})
	return ops, failed, nil
}

func (w *scaleWorkload) finish(b *bench) error {
	if !b.traced {
		return nil
	}
	r := w.last
	b.set("sim.events", float64(r.Events))
	b.set("sim.ns_per_event", b.wall()*1e9/float64(r.Events))
	b.set("verbs.conn_establish", float64(r.Establishes))
	b.set("verbs.conn_evict", float64(r.Evictions))
	b.set("verbs.ctx_miss", float64(r.CacheMisses))
	b.set("verbs.ud_ops", float64(r.UDOps))
	b.set("verbs.conn_kb_per_node", r.ConnBytesAvg/1024)
	b.set("tier.hits", float64(r.Hits))
	b.set("tier.misses", float64(r.Misses))
	b.set("tier.evictions", float64(r.CacheEvictions))
	b.set("tier.invalidations", float64(r.Invalidations))
	b.set("tier.stale_reads", float64(r.StaleReads))
	b.set("tier.rollbacks", float64(r.Rollbacks))
	b.set("tier.dead_fallbacks", float64(r.DeadFallbacks))
	b.set("tier.spills", float64(r.Spills))
	b.set("tier.spill_hits", float64(r.SpillHits))
	b.set("tier.spill_drops", float64(r.SpillDrops))
	if r.Spills > 0 {
		b.set("tier.spill_useful", float64(r.SpillHits)/float64(r.Spills))
	}
	b.set("dir.max_over_mean", r.DirMaxOverMean)
	b.set("dir.migrations", float64(r.DirMigrations))
	b.set("dir.splits", float64(r.DirSplits))
	b.set("model.hit_pct", 100*float64(r.Hits)/float64(r.Requests))
	b.set("model.p99_us", float64(r.P99)/float64(time.Microsecond))
	return nil
}
