package experiments

// E18 — datacenter at scale. Every other experiment mirrors the paper's
// small OSU testbed; this one carries its three primitives (one-sided
// directory lookup, cooperative-cache single-copy placement, DDSS
// segment storage) to a web-scale deployment: a multi-tier cluster of up
// to 8192 nodes in racks, serving Zipf traffic from a modeled client
// population of ~10^6 through a sharded RDMA-readable coopcache
// directory, with misses fetched from rack-aware-placed DDSS segments.
// The O(10^4)-node cells are also the engine's deep-queue regime — tens
// of thousands of pending events at every instant — which is what the
// ladder scheduler (internal/sim) exists for.
//
// The sweep crosses cluster size with the verbs transport mode to
// reproduce the RDMAvisor crossover: fully-connected RC-per-pair wins at
// testbed scale (every connection fits the NIC's context cache, so
// established transports are free), while at O(1000) nodes the resident
// connection count thrashes the context cache on every front-end and the
// pooled hybrid — a fixed LRU pool of connected transports plus a shared
// datagram endpoint for the long tail — wins on both latency and
// per-node connection memory (O(pool) instead of O(N)).
//
// The cache tier is coopcache.Tier: its capacity axis (CacheFrac) reads
// out hit ratio and invalidation churn against slab size. This file
// holds only the topology, the request loop, the table and the probe.

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/coopcache"
	"ngdc/internal/ddss"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/metrics"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
	"ngdc/internal/workload"
)

// Fixed shape of every cell.
const (
	scaleRackSize = 32 // node IDs per rack: DDSS placement and spill neighborhoods
	// scaleDrivers is the number of generator processes multiplexing the
	// clients (≤ front-ends). perfbench's setupRequests (one request per
	// driver) matches this value; change both together.
	scaleDrivers  = 64
	scaleDocBytes = 2048
	scaleFrontCPU = 3 * time.Microsecond // per-request front-end admission/parse cost
)

// ScaleConfig describes one cell of the datacenter-at-scale model.
//
// Tiers interleave within racks by node index: i%8 ∈ {0,1} is a
// front-end (25%), i%8 == 7 is storage (12.5%), the rest are cache
// nodes (62.5%) — so every rack hosts all three tiers and rack-aware
// placement has real spread to work with.
type ScaleConfig struct {
	// Nodes is the cluster size (≥ 8 so every tier is populated).
	Nodes int
	// Transport selects the verbs connection-management mode.
	Transport verbs.TransportConfig
	// Clients is the modeled client population (default 1e6).
	Clients int
	// Requests is the total request count across all drivers (default
	// 200 per front-end).
	Requests int
	// Docs is the working-set size (default 16384).
	Docs int
	// ZipfAlpha shapes document popularity (default 0.99).
	ZipfAlpha float64
	// CacheFrac, Spill and Rebalance are coopcache.TierConfig's Frac,
	// Spill and Rebalance: 0 (the default) or ≥ 1 sizes slabs exactly,
	// so the cell reproduces the unbounded tier; a fraction < 1 turns
	// misses into evict/invalidate churn. Spill and Rebalance are off by
	// default.
	CacheFrac        float64
	Spill, Rebalance bool
	// Seed drives the workload streams and the engine.
	Seed int64
	// Faults optionally injects a deterministic fault plan (node
	// crashes/partitions) into the cell. The cache tier degrades
	// instead of failing: reads against crashed holders fall back to
	// storage and the dead directory entries are cleared.
	Faults *faults.Plan
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Clients <= 0 {
		c.Clients = 1_000_000
	}
	if c.Requests <= 0 {
		c.Requests = 200 * frontEnds(c.Nodes)
	}
	if c.Docs <= 0 {
		c.Docs = 16384
	}
	if c.ZipfAlpha == 0 {
		c.ZipfAlpha = 0.99
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// frontEnds returns the front-end count of an n-node cluster under the
// interleaved tier layout.
func frontEnds(n int) int {
	count := (n / 8) * 2
	if rem := n % 8; rem >= 2 {
		count += 2
	} else {
		count += rem
	}
	return count
}

// ScaleResult is one cell's outcome.
type ScaleResult struct {
	Nodes                             int
	FrontEnds, CacheNodes, StoreNodes int
	Transport                         string
	Requests, Hits, Misses            int64
	// Elapsed is the virtual duration of the measured request phase.
	Elapsed time.Duration
	// P50/P99 are virtual per-request latencies.
	P50, P99 time.Duration
	// ReqsPerSec is virtual throughput: Requests / Elapsed.
	ReqsPerSec float64
	// ConnBytesAvg/Max are HCA connection-state memory per node at the
	// end of the run (the sublinearity gate).
	ConnBytesAvg float64
	ConnBytesMax int64
	// Transport counters summed over all devices.
	Establishes, Evictions, UDOps, CacheMisses int64
	// Cache-tier telemetry, copied from coopcache.TierStats (which
	// defines each counter); the PerSec rates divide by Elapsed.
	// SpillEnabled and RebalanceOn echo the config.
	CacheFrac         float64
	ZipfAlpha         float64
	CacheSlots        int64
	CacheEvictions    int64
	Invalidations     int64
	StaleReads        int64
	DeadFallbacks     int64
	Rollbacks         int64
	CacheEvictPerSec  float64
	SpillEnabled      bool
	SpillSlots        int64
	Spills            int64
	SpillHits         int64
	SpillDrops        int64
	SpillRedirectLost int64
	SpillReclaims     int64
	SpillHitPerSec    float64
	RebalanceOn       bool
	DirMaxOverMean    float64
	DirMigrations     int64
	DirSplits         int64
	// Events is the engine's processed-event count; Wall the host time
	// of the run — together the cluster_events_per_sec bench key.
	Events uint64
	Wall   time.Duration
}

// RunScaleCell builds and runs one datacenter-at-scale cell.
func RunScaleCell(cfg ScaleConfig) (ScaleResult, error) {
	res, _, err := runScaleCell(cfg)
	return res, err
}

// runScaleCell is RunScaleCell also returning the cache tier, so tests
// can audit its coherence after the run.
func runScaleCell(cfg ScaleConfig) (ScaleResult, *coopcache.Tier, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 8 {
		return ScaleResult{}, nil, fmt.Errorf("scale: need ≥ 8 nodes for all tiers, got %d", cfg.Nodes)
	}
	env := sim.NewEnv(cfg.Seed)
	// The tier's spill workers and other daemons stay parked once the
	// run drains; reclaim their goroutines with the cell.
	defer env.Shutdown()
	faults.Install(env, cfg.Faults)
	nw := verbs.NewNetworkWith(env, fabric.DefaultParams(), cfg.Transport)
	nodes := make([]*cluster.Node, cfg.Nodes)
	var fes, caches, stores []*cluster.Node
	for i := range nodes {
		n := cluster.NewNode(env, i, 4, 1<<26)
		nodes[i] = n
		switch {
		case i%8 < 2:
			fes = append(fes, n)
		case i%8 == 7:
			stores = append(stores, n)
		default:
			caches = append(caches, n)
		}
	}
	feDevs := make([]*verbs.Device, len(fes))
	for i, n := range fes {
		feDevs[i] = nw.Attach(n)
	}
	// Cache tier: the sharded RDMA-readable directory plus one
	// capacity-bounded multi-slot document slab per cache node.
	tier := coopcache.NewTier(nw, caches, coopcache.TierConfig{
		Docs: cfg.Docs, DocBytes: scaleDocBytes, Frac: cfg.CacheFrac,
		Spill: cfg.Spill, Rebalance: cfg.Rebalance, RackSize: scaleRackSize,
	})
	// Storage tier: DDSS segments spread rack-aware across the storage
	// nodes of every rack.
	ss := ddss.New(nw, nodes, ddss.Options{})
	ss.SetPlacement(ss.RackAware(
		func(id int) int { return id / scaleRackSize },
		func(id int) bool { return id%8 == 7 },
	))
	numSegs := 2 * len(stores)
	segKeys := make([]string, numSegs)
	for s := range segKeys {
		segKeys[s] = fmt.Sprintf("seg-%04d", s)
	}

	drivers := min(scaleDrivers, len(fes))
	pop := workload.NewPopulation(cfg.Clients, cfg.Docs, cfg.ZipfAlpha, cfg.Seed)

	// Lazy per-(front-end, segment) DDSS handles: Zipf traffic touches a
	// small fraction of the cross product, so the flat index array stays
	// mostly nil.
	handles := make([]*ddss.Handle, len(fes)*numSegs)
	clients := make([]*ddss.Client, len(fes))

	var hits, misses int64
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	lat := make([][]time.Duration, drivers)
	var start sim.Time

	// Run ends only when the event queue drains, so the tier's periodic
	// daemons stop once the last request generator finishes.
	liveDrivers := drivers
	tier.Start(fail)

	driver := func(p *sim.Proc, k int) {
		defer func() {
			if liveDrivers--; liveDrivers == 0 {
				tier.Stop()
			}
		}()
		st := pop.Stream(k, drivers)
		nReq := cfg.Requests / drivers
		if k < cfg.Requests%drivers {
			nReq++
		}
		feLo := k * len(fes) / drivers
		feN := (k+1)*len(fes)/drivers - feLo
		scr := new(coopcache.Scratch)
		buf := make([]byte, scaleDocBytes)
		lats := make([]time.Duration, 0, nReq)
		for i := 0; i < nReq; i++ {
			rq := st.Next()
			fi := feLo + rq.Client%feN
			t0 := env.Now()
			fes[fi].Exec(p, scaleFrontCPU)
			hit, err := tier.Read(p, feDevs[fi], rq.Doc, buf, scr)
			if err != nil {
				fail(err)
				return
			}
			if hit {
				hits++
			} else {
				// Miss (or degraded hit): fetch from the document's
				// DDSS segment on the storage tier, then install the
				// copy — evicting and invalidating as capacity demands.
				si := rq.Doc % numSegs
				hidx := fi*numSegs + si
				if handles[hidx] == nil {
					if clients[fi] == nil {
						clients[fi] = ss.Client(fes[fi].ID)
					}
					h, err := clients[fi].Open(segKeys[si])
					if err != nil {
						fail(err)
						return
					}
					handles[hidx] = h
				}
				if _, err := handles[hidx].Get(p, buf); err != nil {
					fail(err)
					return
				}
				if err := tier.Install(p, feDevs[fi], rq.Doc, buf, scr); err != nil {
					fail(err)
					return
				}
				misses++
			}
			lats = append(lats, time.Duration(env.Now()-t0))
		}
		lat[k] = lats
	}

	env.Go("boot", func(p *sim.Proc) {
		boot := ss.Client(fes[0].ID)
		for _, key := range segKeys {
			if _, err := boot.Allocate(p, key, scaleDocBytes, ddss.Null, ddss.NodeAuto); err != nil {
				fail(err)
				return
			}
		}
		start = env.Now()
		for k := 0; k < drivers; k++ {
			kk := k
			env.Go(fmt.Sprintf("driver-%d", kk), func(p *sim.Proc) { driver(p, kk) })
		}
	})

	wallStart := time.Now()
	if err := env.Run(); err != nil {
		return ScaleResult{}, nil, err
	}
	if firstErr != nil {
		return ScaleResult{}, nil, firstErr
	}

	var sample metrics.Sample
	for _, ls := range lat {
		for _, d := range ls {
			sample.AddDuration(d)
		}
	}
	elapsed := time.Duration(env.Now() - start)
	ts := tier.Stats()
	res := ScaleResult{
		Nodes: cfg.Nodes, FrontEnds: len(fes), CacheNodes: len(caches), StoreNodes: len(stores),
		Transport: nw.Transport().Mode.String(),
		Requests:  hits + misses, Hits: hits, Misses: misses,
		Elapsed:           elapsed,
		P50:               time.Duration(sample.Percentile(50) * float64(time.Microsecond)),
		P99:               time.Duration(sample.Percentile(99) * float64(time.Microsecond)),
		CacheFrac:         ts.Frac,
		ZipfAlpha:         cfg.ZipfAlpha,
		CacheSlots:        ts.Slots,
		CacheEvictions:    ts.Evictions,
		Invalidations:     ts.Invalidations,
		StaleReads:        ts.StaleReads,
		DeadFallbacks:     ts.DeadFallbacks,
		Rollbacks:         ts.Rollbacks,
		SpillEnabled:      cfg.Spill,
		SpillSlots:        ts.SpillSlots,
		Spills:            ts.Spills,
		SpillHits:         ts.SpillHits,
		SpillDrops:        ts.SpillDrops,
		SpillRedirectLost: ts.SpillRedirectLost,
		SpillReclaims:     ts.SpillReclaims,
		RebalanceOn:       cfg.Rebalance,
		DirMaxOverMean:    ts.DirMaxOverMean,
		DirMigrations:     ts.DirMigrations,
		DirSplits:         ts.DirSplits,
		Events:            env.Stats().EventsProcessed,
		Wall:              time.Since(wallStart),
	}
	if elapsed > 0 {
		res.ReqsPerSec = float64(res.Requests) / elapsed.Seconds()
		res.CacheEvictPerSec = float64(res.CacheEvictions) / elapsed.Seconds()
		res.SpillHitPerSec = float64(res.SpillHits) / elapsed.Seconds()
	}
	res.ConnBytesAvg, res.ConnBytesMax = nw.ConnBytesPerNode()
	res.Establishes, res.Evictions, res.UDOps, res.CacheMisses = nw.ConnTotals()
	return res, tier, nil
}

// DCScale regenerates E18: the cluster-size × transport-mode sweep,
// plus a cache-capacity axis (slab fraction of the working set), a
// hotter Zipf point that drives the eviction/invalidation churn loop,
// and a cooperative-spill × rebalancing axis that toggles the two
// mechanisms over the capacity/hotspot cells.
func DCScale(o Options) (*metrics.Table, error) {
	type cell struct {
		nodes int
		tc    verbs.TransportConfig
		frac  float64
		alpha float64
		docs  int
		spill bool
		reb   bool
	}
	modes := []verbs.TransportConfig{{}, verbs.PooledTransport()}
	var cells []cell
	sizes := []int{64, 256, 1024, 4096, 8192}
	clients, perFE := 1_000_000, 600
	churnNodes := 256
	fracs := []float64{0.25, 0.1, 0.05}
	hotAlpha, hotFrac := 1.2, 0.1
	if o.Quick {
		// The CI quick-scale smoke: still an O(10^4)-node cluster, but a
		// reduced client population and request budget; the churn cells
		// drop to a smaller fraction so capacity pressure is reached with
		// the fewer distinct documents the smaller budget touches.
		sizes = []int{64, 4096}
		clients, perFE = 100_000, 150
		churnNodes = 64
		fracs = []float64{0.05}
		hotFrac = 0.05
	}
	for _, n := range sizes {
		for _, tc := range modes {
			cells = append(cells, cell{nodes: n, tc: tc, frac: 1, alpha: 0.99})
		}
	}
	// Capacity axis: fixed cluster and working set, shrinking slabs —
	// the cap-1.0 row of the same cluster size above is the baseline, so
	// hit % reads monotone straight down the column.
	for _, f := range fracs {
		for _, tc := range modes {
			cells = append(cells, cell{nodes: churnNodes, tc: tc, frac: f, alpha: 0.99})
		}
	}
	// Hotspot point: hotter Zipf concentrates churn on the head.
	for _, tc := range modes {
		cells = append(cells, cell{nodes: churnNodes, tc: tc, frac: hotFrac, alpha: hotAlpha})
	}
	// Cooperative-spill × rebalancing axis: capacity-pressured cells on
	// the pooled transport with each mechanism toggled. The off/off rows
	// are the drop-on-evict baselines the spill rows are judged against.
	spillFracs := []float64{0.1, 0.05}
	spillAlphas := []float64{1.01, 1.2}
	spillNodes, spillDocs := churnNodes, 0
	if o.Quick {
		spillFracs = []float64{0.05}
		spillAlphas = []float64{1.2}
		// The quick budget touches few distinct docs; shrink the working
		// set so eviction churn (and thus spill re-reads) still happens.
		spillDocs = 4096
	}
	for _, f := range spillFracs {
		for _, a := range spillAlphas {
			for _, m := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				cells = append(cells, cell{
					nodes: spillNodes, tc: verbs.PooledTransport(),
					frac: f, alpha: a, docs: spillDocs, spill: m[0], reb: m[1],
				})
			}
		}
	}
	res := make([]ScaleResult, len(cells))
	err := runCells(o, len(cells), func(i int, o Options) error {
		c := cells[i]
		cfg := ScaleConfig{
			Nodes:     c.nodes,
			Transport: c.tc,
			Clients:   clients,
			Requests:  perFE * frontEnds(c.nodes),
			Docs:      c.docs,
			ZipfAlpha: c.alpha,
			CacheFrac: c.frac,
			Spill:     c.spill,
			Rebalance: c.reb,
			Seed:      o.seed(),
		}
		var err error
		res[i], err = RunScaleCell(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E18 — datacenter at scale: cluster size × transport mode × cache capacity × spill/rebalance (Zipf traffic, "+
		fmt.Sprintf("%d modeled clients)", clients),
		"nodes", "transport", "cap", "alpha", "spill", "reb", "reqs/s", "p50 (µs)", "p99 (µs)",
		"hit %", "spill %", "evict/s", "sphit/s", "dir mx/mn", "conn KB/node")
	for _, r := range res {
		tb.AddRow(r.Nodes, r.Transport,
			r.CacheFrac, r.ZipfAlpha,
			onoff(r.SpillEnabled), onoff(r.RebalanceOn),
			r.ReqsPerSec,
			float64(r.P50)/float64(time.Microsecond),
			float64(r.P99)/float64(time.Microsecond),
			metrics.Ratio(float64(r.Hits)*100, float64(r.Requests)),
			metrics.Ratio(float64(r.SpillHits)*100, float64(r.Requests)),
			r.CacheEvictPerSec,
			r.SpillHitPerSec,
			r.DirMaxOverMean,
			r.ConnBytesAvg/1024)
	}
	return tb, nil
}

func onoff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// ScaleProbe holds the connection-scaling measurements the bench
// snapshot publishes: both transport modes at 64 and 1024 nodes, one
// capacity-bounded churn cell (the cache_evictions_per_sec key), the
// same cell with cooperative spill armed (spill_hits_per_sec), and a
// rebalanced hotspot cell (dir_shard_max_over_mean).
type ScaleProbe struct {
	RC64, RC1024, Pooled64, Pooled1024 ScaleResult
	Churn                              ScaleResult
	SpillChurn                         ScaleResult
	Hotspot                            ScaleResult
}

// RunScaleProbe measures connection state and event throughput at 64
// and 1024 nodes in both transport modes (the conn_bytes_per_node and
// cluster_events_per_sec bench keys), eviction churn in a
// capacity-bounded cell (cache_evictions_per_sec), spill service rate
// with the victim tier armed (spill_hits_per_sec) and directory-shard
// imbalance under a rebalanced hotspot (dir_shard_max_over_mean).
func RunScaleProbe(seed int64, parallel int) (ScaleProbe, error) {
	cfgs := []ScaleConfig{
		{Nodes: 64, Transport: verbs.TransportConfig{}},
		{Nodes: 1024, Transport: verbs.TransportConfig{}},
		{Nodes: 64, Transport: verbs.PooledTransport()},
		{Nodes: 1024, Transport: verbs.PooledTransport()},
		{Nodes: 256, Transport: verbs.TransportConfig{}, Docs: 8192, CacheFrac: 0.1},
		{Nodes: 256, Transport: verbs.TransportConfig{}, Docs: 8192, CacheFrac: 0.1, Spill: true},
		{Nodes: 256, Transport: verbs.TransportConfig{}, Docs: 8192, CacheFrac: 0.1, ZipfAlpha: 1.2, Rebalance: true},
	}
	res := make([]ScaleResult, len(cfgs))
	err := runCells(Options{Seed: seed, Parallel: parallel}, len(cfgs), func(i int, o Options) error {
		cfg := cfgs[i]
		cfg.Clients = 200_000
		cfg.Requests = 400 * frontEnds(cfg.Nodes)
		cfg.Seed = o.seed()
		var err error
		res[i], err = RunScaleCell(cfg)
		return err
	})
	if err != nil {
		return ScaleProbe{}, err
	}
	return ScaleProbe{
		RC64: res[0], RC1024: res[1], Pooled64: res[2], Pooled1024: res[3],
		Churn: res[4], SpillChurn: res[5], Hotspot: res[6],
	}, nil
}
