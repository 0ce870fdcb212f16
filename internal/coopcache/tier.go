package coopcache

// Tier is the capacity-bounded cooperative cache tier E18 (dc-scale)
// runs: the sharded RDMA-readable Directory plus one document slab per
// cache node in registered memory, fronted by a byte-capacity LRU. A
// miss install that overflows a slab evicts the LRU victim and clears
// its directory word (a CAS of the exact observed entry) *before*
// publishing the new document. With spill on, the victim is instead
// demoted into a rack neighbor's reserved region (a one-sided Write plus
// a redirect CAS); with rebalance on, the directory is bucketed and a
// daemon migrates or splits the hottest shard's buckets.
//
// slotDoc/docNode/docSlot are the ground truth for what each slab slot
// holds *right now*, mutated only at callback instants (never across a
// costed op). A reader validates its slab read against slotDoc
// afterwards — modeling self-identifying slab bytes — so a read that
// raced an eviction is a miss, after clearing the exact word observed.
// A peer fault (verbs.ErrUnreachable) marks the node dead — sticky, a
// conservative failure detector — and the request serves from storage.

import (
	"errors"
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/lru"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

const (
	// spillFrac sizes a node's spill region against its main slots. The
	// region models the rack's idle memory, so it outsizes the LRU set.
	spillFrac        = 1.5
	spillQueueLen    = 32 // demotion ring per node; full → plain drop
	rebalanceBuckets = 8  // initial directory buckets per shard
	rebalanceEvery   = 200 * time.Microsecond
)

// TierConfig sizes a Tier.
type TierConfig struct {
	// Docs is the working-set size, DocBytes the uniform document size.
	Docs, DocBytes int
	// Frac sizes each node's slab as a fraction of its share of the
	// working set; 0 or ≥ 1 is exact sizing (nothing ever evicts).
	Frac float64
	// Spill arms the victim regions and demotion workers, Rebalance the
	// bucketed directory and its rebalance daemon.
	Spill, Rebalance bool
	// RackSize groups node IDs into the racks spill targets are chosen
	// within (> 0 when Spill is set).
	RackSize int
}

// TierStats is the tier's capacity and churn telemetry.
type TierStats struct {
	// Frac is the effective slab fraction (1 when exact-sized); Slots
	// and SpillSlots the main and reserved victim capacity in documents.
	Frac              float64
	Slots, SpillSlots int64
	// Evictions counts LRU victims pushed out by capacity pressure,
	// Invalidations the directory Clear CASes issued, StaleReads the hit
	// reads that landed after their entry was evicted, DeadFallbacks the
	// operations degraded by an unreachable peer, and Rollbacks the
	// installs undone after losing the publish CAS.
	Evictions, Invalidations, StaleReads, DeadFallbacks, Rollbacks int64
	// Spills counts successful demotions, SpillHits the reads served from
	// a spill slot, SpillDrops the demotions degraded to a plain drop,
	// SpillRedirectLost the demotions undone after losing the redirect
	// CAS, and SpillReclaims the oldest residents a full region evicted.
	Spills, SpillHits, SpillDrops, SpillRedirectLost, SpillReclaims int64
	// DirMaxOverMean is the hottest directory shard's read+CAS load over
	// the mean; the rest count rebalancing actions and the control-plane
	// ops degraded against unreachable hosts.
	DirMaxOverMean                      float64
	DirMigrations, DirSplits, TickSkips int64
}

// Tier is one cooperative cache tier. See the file comment.
type Tier struct {
	dir   *Directory
	slabs []verbs.RemoteAddr

	lrus      []*lru.Cache[int32] // per cache node, byte capacity = slots×DocBytes
	slotDoc   [][]int32           // per node: slot → resident doc, -1 free
	freeSlot  [][]int32           // per node: stack of free main-slot indices
	mainSlots []int32             // per node: first spill slot index
	docNode   []int32             // doc → cache node index holding it, -1 none
	docSlot   []int32             // doc → slot on docNode
	dead      []bool              // cache nodes observed unreachable

	docBytes  int
	rebalance bool
	stats     TierStats

	// devs are the cache nodes' own devices: the demotion issuers, and
	// devs[0] the rebalance tick's.
	devs []*verbs.Device

	// Cooperative-spill state (nil when disabled). Slots past
	// mainSlots[i] on node i are its reserved spill region; spilled
	// documents sit outside the LRU and are reclaimed FIFO by the region
	// manager. Each node runs one demotion worker fed by a fixed ring, so
	// the evictor's request never waits on the spill wire ops.
	spill      *spillRegions
	rackPeers  [][]int32 // rack → cache-node indices in it
	rackOf     []int32   // cache-node index → rack
	spillQ     []spillRing
	workers    []*sim.Proc
	workerIdle []bool

	env     *sim.Env
	fail    func(error) // worker errors that are not degradable faults
	stopped bool        // ends the rebalance daemon at its next tick
}

// spillRing is one node's fixed-capacity demotion queue.
type spillRing struct {
	buf     []spillJob
	head, n int
}

type spillJob struct{ doc, slot int32 }

func (q *spillRing) push(j spillJob) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = j
	q.n++
	return true
}

func (q *spillRing) pop() (spillJob, bool) {
	if q.n == 0 {
		return spillJob{}, false
	}
	j := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return j, true
}

// Scratch is one requester's reusable buffers, so Read and Install
// allocate nothing per request in steady state. The zero value is ready
// to use; one Scratch must not be shared between processes.
type Scratch struct {
	dirWord [8]byte // directory read target
	ev      []int32 // LRU victim keys
	evSlots []int32 // victims' slab slots
}

// NewTier registers the directory (sharded over caches) and the
// per-node slabs. Each node's main slot count is its exact share of the
// working set (the documents hashing to it) scaled by Frac, floored at
// one slot; with Spill the slab grows by a victim region of spillFrac ×
// that. Memory is registered at setup, before the clock matters.
func NewTier(nw *verbs.Network, caches []*cluster.Node, cfg TierConfig) *Tier {
	nc := len(caches)
	buckets := 0
	if cfg.Rebalance {
		buckets = rebalanceBuckets
	}
	t := &Tier{
		dir:       NewDirectory(nw, caches, cfg.Docs, buckets),
		slabs:     make([]verbs.RemoteAddr, nc),
		lrus:      make([]*lru.Cache[int32], nc),
		slotDoc:   make([][]int32, nc),
		freeSlot:  make([][]int32, nc),
		mainSlots: make([]int32, nc),
		docNode:   make([]int32, cfg.Docs),
		docSlot:   make([]int32, cfg.Docs),
		dead:      make([]bool, nc),
		devs:      make([]*verbs.Device, nc),
		env:       nw.Env,
		docBytes:  cfg.DocBytes,
		rebalance: cfg.Rebalance,
	}
	bounded := cfg.Frac > 0 && cfg.Frac < 1
	t.stats.Frac = 1
	if bounded {
		t.stats.Frac = cfg.Frac
	}
	for d := range t.docNode {
		t.docNode[d] = -1
		t.docSlot[d] = -1
	}
	homeLoad := make([]int, nc)
	for d := 0; d < cfg.Docs; d++ {
		homeLoad[t.home(d)]++
	}
	spillCount := make([]int32, nc)
	for i, n := range caches {
		slots := homeLoad[i]
		if bounded {
			slots = int(cfg.Frac * float64(homeLoad[i]))
		}
		slots = max(slots, 1)
		t.mainSlots[i] = int32(slots)
		spillSlots := 0
		if cfg.Spill {
			spillSlots = max(int(spillFrac*float64(slots)+0.5), 1)
		}
		spillCount[i] = int32(spillSlots)
		total := slots + spillSlots
		t.devs[i] = nw.Attach(n)
		t.slabs[i] = t.devs[i].RegisterAtSetup(make([]byte, total*cfg.DocBytes)).Addr()
		t.lrus[i] = lru.New[int32](int64(slots) * int64(cfg.DocBytes))
		sd := make([]int32, total)
		for j := range sd {
			sd[j] = -1
		}
		fs := make([]int32, slots)
		for j := range fs {
			fs[j] = int32(slots - 1 - j) // pop order: slot 0 first
		}
		t.slotDoc[i] = sd
		t.freeSlot[i] = fs
		t.stats.Slots += int64(slots)
		t.stats.SpillSlots += int64(spillSlots)
	}
	if cfg.Spill {
		t.spill = newSpillRegions(t.mainSlots, spillCount)
		t.rackOf = make([]int32, nc)
		for i, n := range caches {
			r := n.ID / cfg.RackSize
			if r >= len(t.rackPeers) {
				t.rackPeers = append(t.rackPeers, make([][]int32, r+1-len(t.rackPeers))...)
			}
			t.rackOf[i] = int32(r)
			t.rackPeers[r] = append(t.rackPeers[r], int32(i))
		}
		t.spillQ = make([]spillRing, nc)
		for i := range t.spillQ {
			t.spillQ[i].buf = make([]spillJob, spillQueueLen)
		}
		t.workers = make([]*sim.Proc, nc)
		t.workerIdle = make([]bool, nc)
	}
	return t
}

// Start spawns the tier's daemons on the network's engine: one demotion
// worker per cache node when spill is on, then the rebalance tick when
// rebalancing is on. fail receives daemon errors that are not degradable
// faults.
func (t *Tier) Start(fail func(error)) {
	t.fail = fail
	env := t.env
	if t.spill != nil {
		for n := range t.lrus {
			nn := n
			t.workers[n] = env.GoDaemon(fmt.Sprintf("spill-%d", nn), func(p *sim.Proc) {
				t.spillWorker(p, nn)
			})
		}
	}
	if t.rebalance {
		// The tick issues its control-plane ops from the first cache
		// node's device; an unreachable host just skips the pass.
		rdev := t.devs[0]
		env.GoDaemon("rebalance", func(p *sim.Proc) {
			for !t.stopped {
				p.Sleep(rebalanceEvery)
				if err := t.dir.RebalanceTick(p, rdev); err != nil {
					t.fail(err)
					return
				}
			}
		})
	}
}

// Stop ends the rebalance daemon at its next tick, so a run whose
// requesters have all finished drains instead of ticking forever. Spill
// workers finish their queued demotions and park; Env.Shutdown reclaims
// them.
func (t *Tier) Stop() { t.stopped = true }

// Stats returns the tier's telemetry so far.
func (t *Tier) Stats() TierStats {
	s := t.stats
	s.DirMaxOverMean = t.dir.LoadMaxOverMean()
	s.DirMigrations = t.dir.Migrations()
	s.DirSplits = t.dir.Splits()
	s.TickSkips = t.dir.TickSkips()
	return s
}

// home maps a document to its preferred holder (a cache node index).
func (t *Tier) home(doc int) int {
	return int((uint32(doc)*2654435761)>>16) % len(t.lrus)
}

// markDead records one operation degraded by a fault against node n.
// Only a peer fault marks n dead: a local-device fault says nothing
// about the target.
func (t *Tier) markDead(n int, err error) {
	if errors.Is(err, verbs.ErrUnreachable) {
		t.dead[n] = true
	}
	t.stats.DeadFallbacks++
}

// degrade absorbs a peer fault against node n (markDead) and returns
// nil; any other error, or nil, is returned as is.
func (t *Tier) degrade(err error, n int) error {
	if !errors.Is(err, verbs.ErrUnreachable) {
		return err
	}
	t.markDead(n, err)
	return nil
}

// Read looks doc up and, on a directory hit, reads the slab slot the
// word names into buf, validating that the slot still holds doc. hit is
// false — the caller serves from storage — when there is no entry, the
// entry is stale (evicted mid-flight) or the holder or directory home
// is unreachable; a stale or dead word is cleared so later requests
// don't chase it.
func (t *Tier) Read(p *sim.Proc, dev *verbs.Device, doc int, buf []byte, scr *Scratch) (hit bool, err error) {
	e, err := t.dir.Lookup(p, dev, doc, scr.dirWord[:])
	if err != nil || e == 0 {
		return false, t.degrade(err, t.dir.HomeShard(doc))
	}
	h, s := e.Holder(), e.Slot()
	if h < 0 || h >= len(t.lrus) || s < 0 || s >= len(t.slotDoc[h]) || t.slotDoc[h][s] != int32(doc) {
		// Dangling word: the placement it names no longer holds doc.
		t.stats.StaleReads++
		return false, t.clearEntry(p, dev, doc, e)
	}
	if err := dev.Read(p, buf, t.slabs[h], s*t.docBytes); err != nil {
		if err := t.degrade(err, h); err != nil {
			return false, err
		}
		// Crashed holder: drop our bookkeeping for the copy and clear its
		// word; the caller re-installs elsewhere.
		t.dropIfAt(doc, h, int32(s))
		return false, t.clearEntry(p, dev, doc, e)
	}
	if t.slotDoc[h][s] != int32(doc) {
		// The slot turned over while the read was in flight: the bytes
		// read belong to another document.
		t.stats.StaleReads++
		return false, t.clearEntry(p, dev, doc, e)
	}
	if s >= int(t.mainSlots[h]) {
		// Served from the holder's spill region: the victim tier paid
		// off. Re-stamp the claim so reclaim order approximates LRU over
		// the victim tier — without this, a hot resident is dropped just
		// because it was demoted early.
		t.stats.SpillHits++
		t.spill.Touch(h, int32(s))
		return true, nil
	}
	t.lrus[h].Get(int32(doc)) // touch recency; metadata-only
	return true, nil
}

// Install places a fetched document into the tier: evict LRU victims as
// needed, invalidate their directory words (or hand them to the spill
// worker), write the slab slot, publish the new word, and roll back if
// the publish loses. All local metadata for the placement — victim
// slots freed, the new slot claimed — is assigned at the decision
// instant, before any costed op, so concurrent installers observe a
// consistent placement throughout. A document whose directory home is
// dead is not installed: no lookup could ever find the copy.
func (t *Tier) Install(p *sim.Proc, dev *verbs.Device, doc int, buf []byte, scr *Scratch) error {
	if t.dead[t.dir.HomeShard(doc)] {
		return nil
	}
	if n := t.docNode[doc]; n >= 0 {
		// A concurrent installer already claimed a slot for doc (its
		// publish may still be in flight): refresh that copy and
		// re-publish the same word. Losing this CAS is the common
		// duplicate-install race — the winner published the identical
		// word — so no rollback.
		s := t.docSlot[doc]
		t.lrus[n].Get(int32(doc))
		if err := dev.Write(p, t.slabs[n], int(s)*t.docBytes, buf); err != nil {
			if err := t.degrade(err, int(n)); err != nil {
				return err
			}
			t.dropIfAt(doc, int(n), s)
			return nil
		}
		if _, err := t.dir.Publish(p, dev, doc, PackEntry(int(n), int(s))); err != nil {
			return t.degrade(err, t.dir.HomeShard(doc))
		}
		return nil
	}

	// Fresh install: place on the doc's home node, skipping nodes
	// observed dead.
	n := t.home(doc)
	for i := 0; i < len(t.lrus) && t.dead[n]; i++ {
		n = (n + 1) % len(t.lrus)
	}
	if t.dead[n] {
		t.stats.DeadFallbacks++
		return nil // entire tier unreachable: serve uncached
	}

	// Decision instant: evict, free victim slots, claim ours.
	scr.ev = t.lrus[n].PutInto(int32(doc), int64(t.docBytes), scr.ev[:0])
	scr.evSlots = scr.evSlots[:0]
	for _, v := range scr.ev {
		vs := t.docSlot[v]
		scr.evSlots = append(scr.evSlots, vs)
		t.slotDoc[n][vs] = -1
		t.freeSlot[n] = append(t.freeSlot[n], vs)
		t.docNode[v] = -1
		t.docSlot[v] = -1
		t.stats.Evictions++
	}
	last := len(t.freeSlot[n]) - 1
	s := t.freeSlot[n][last]
	t.freeSlot[n] = t.freeSlot[n][:last]
	t.slotDoc[n][s] = int32(doc)
	t.docNode[doc] = int32(n)
	t.docSlot[doc] = s

	// Deal with the victims' directory words before publishing the new
	// document. With spill enabled the victim is handed to the node's
	// demotion worker — its word stays up until the worker redirects it
	// to the spill copy (a reader racing the turnover fails slab
	// validation and degrades to a miss, exactly the stale-read path).
	// Otherwise invalidate eagerly: a reader must never find a committed
	// word naming a slot the tier has already handed out.
	for i, v := range scr.ev {
		if t.enqueueSpill(n, v, scr.evSlots[i]) {
			continue
		}
		if err := t.clearEntry(p, dev, int(v), PackEntry(n, int(scr.evSlots[i]))); err != nil {
			return err
		}
	}

	if err := dev.Write(p, t.slabs[n], int(s)*t.docBytes, buf); err != nil {
		if err := t.degrade(err, n); err != nil {
			return err
		}
		t.dropIfAt(doc, n, s)
		return nil
	}
	e := PackEntry(n, int(s))
	won, err := t.dir.Publish(p, dev, doc, e)
	if err != nil {
		if err := t.degrade(err, t.dir.HomeShard(doc)); err != nil {
			return err
		}
		t.dropIfAt(doc, n, s)
		return nil
	}
	if !won {
		// A racing publisher (or a not-yet-invalidated stale word) holds
		// the directory word: roll the local install back so the slab
		// slot isn't silently orphaned.
		t.stats.Rollbacks++
		t.dropIfAt(doc, n, s)
		return nil
	}
	if t.docNode[doc] != int32(n) || t.docSlot[doc] != s {
		// Our slot was evicted while the write/publish was in flight; the
		// word we just published is already dangling — clear it.
		return t.clearEntry(p, dev, doc, e)
	}
	return nil
}

// clearEntry CASes doc's directory word from the exact observed entry
// to empty. Losing the CAS is benign (a republish already replaced the
// word); an unreachable directory home is tolerated.
func (t *Tier) clearEntry(p *sim.Proc, dev *verbs.Device, doc int, e Entry) error {
	t.stats.Invalidations++
	if _, err := t.dir.Clear(p, dev, doc, e); err != nil {
		if !errors.Is(err, verbs.ErrUnreachable) {
			return err
		}
		t.dead[t.dir.HomeShard(doc)] = true
	}
	return nil
}

// dropIfAt undoes doc's local placement if it still is (n, s): the LRU
// entry (or spill claim), the slot claim and the doc→node map. A no-op
// if a concurrent evictor already recycled the slot.
func (t *Tier) dropIfAt(doc, n int, s int32) {
	if t.docNode[doc] != int32(n) || t.docSlot[doc] != s {
		return
	}
	if s >= t.mainSlots[n] {
		t.spill.Release(n, s)
	} else {
		t.lrus[n].Remove(int32(doc))
		t.freeSlot[n] = append(t.freeSlot[n], s)
	}
	t.slotDoc[n][s] = -1
	t.docNode[doc] = -1
	t.docSlot[doc] = -1
}

// enqueueSpill hands an evicted victim to node n's demotion worker.
// false when spill is off or the ring is full (the caller invalidates
// eagerly — a plain drop).
func (t *Tier) enqueueSpill(n int, doc, slot int32) bool {
	if t.spill == nil {
		return false
	}
	if !t.spillQ[n].push(spillJob{doc: doc, slot: slot}) {
		t.stats.SpillDrops++
		return false
	}
	if t.workerIdle[n] {
		t.workerIdle[n] = false
		t.env.Wake(t.workers[n])
	}
	return true
}

const parkSpillIdle = "spill-idle"

// spillWorker is node n's demotion daemon: it drains the ring, parking
// when idle. The payload buffer is per-worker, so demotions allocate
// nothing in steady state.
func (t *Tier) spillWorker(p *sim.Proc, n int) {
	buf := make([]byte, t.docBytes)
	for {
		j, ok := t.spillQ[n].pop()
		if !ok {
			t.workerIdle[n] = true
			p.Park(parkSpillIdle)
			continue
		}
		t.runSpill(p, n, j, buf)
	}
}

// dropSpill degrades a demotion to the plain drop the tier did before
// spill existed: the victim's old word is cleared.
func (t *Tier) dropSpill(p *sim.Proc, dev *verbs.Device, doc int, old Entry) {
	if err := t.clearEntry(p, dev, doc, old); err != nil {
		t.fail(err)
	}
}

// runSpill demotes one victim: claim a spill slot on a rack neighbor
// (reclaiming the neighbor's oldest spill resident when the region is
// full), write the bytes, and swing the victim's directory word from the
// evicted slot to the spill slot with one CAS. Every failure mode — no
// viable neighbor, unreachable target, lost redirect — degrades to a
// plain drop.
func (t *Tier) runSpill(p *sim.Proc, n int, j spillJob, buf []byte) {
	doc := int(j.doc)
	dev := t.devs[n]
	old := PackEntry(n, int(j.slot))
	if t.docNode[doc] != -1 {
		if t.docNode[doc] == int32(n) && t.docSlot[doc] == j.slot {
			// Re-installed at the very same placement while queued: the
			// old word IS the live word — leave it alone.
			return
		}
		// The doc was re-installed elsewhere while queued; our stale word
		// is whatever the installer raced against. Just take it out.
		t.dropSpill(p, dev, doc, old)
		return
	}
	tg := t.pickSpillTarget(n)
	if tg < 0 {
		t.stats.SpillDrops++
		t.dropSpill(p, dev, doc, old)
		return
	}
	ss, ok := t.spill.Claim(tg)
	odDoc := int32(-1)
	if !ok {
		ss, ok = t.spill.Reclaim(tg)
		if ok {
			if od := t.slotDoc[tg][ss]; od >= 0 {
				// Drop the oldest spill resident to make room. Only the
				// metadata moves at this instant; its directory word is
				// invalidated below, after the slot is ours — issuing the
				// CAS first would open a window where a racing installer
				// rebinds the victim while this worker still assumes it
				// owns the claim.
				t.stats.SpillReclaims++
				t.docNode[od] = -1
				t.docSlot[od] = -1
				odDoc = od
			}
		}
	}
	if !ok {
		t.stats.SpillDrops++
		t.dropSpill(p, dev, doc, old)
		return
	}
	// Claim the placement at this decision instant, before any costed
	// op, so concurrent readers validate consistently.
	t.slotDoc[tg][ss] = j.doc
	t.docNode[doc] = int32(tg)
	t.docSlot[doc] = ss
	if odDoc >= 0 {
		// The reclaimed resident's word still names this slot; take it
		// out so lookups stop chasing a placement that now holds doc. (A
		// reader that races this clear fails slab validation anyway.)
		if err := t.clearEntry(p, dev, int(odDoc), PackEntry(tg, int(ss))); err != nil {
			t.fail(err)
			return
		}
	}
	if err := dev.Write(p, t.slabs[tg], int(ss)*t.docBytes, buf); err != nil {
		if !degradable(err) {
			t.fail(err)
			return
		}
		t.markDead(tg, err)
		t.stats.SpillDrops++
		t.dropIfAt(doc, tg, ss)
		t.dropSpill(p, dev, doc, old)
		return
	}
	ne := PackEntry(tg, int(ss))
	won, prev, err := t.dir.Redirect(p, dev, doc, old, ne)
	if err != nil {
		if !degradable(err) {
			t.fail(err)
			return
		}
		t.markDead(t.dir.HomeShard(doc), err)
		t.stats.SpillDrops++
		t.dropIfAt(doc, tg, ss)
		return
	}
	if won || prev == ne {
		// Won outright, or a concurrent refresher already published the
		// identical placement — either way the spill copy is live.
		t.stats.Spills++
		return
	}
	// The word changed under us (cleared by a racing reader, or the doc
	// was reinstalled): undo the claim, the demotion degrades to a drop.
	t.stats.SpillRedirectLost++
	t.dropIfAt(doc, tg, ss)
}

// pickSpillTarget ranks node n's live rack neighbors by spill-region
// free slots, then LRU headroom, preferring the lowest index on ties —
// the per-rack pressure hint. Falls back to n's own region when no
// neighbor qualifies; -1 degrades the demotion to a drop.
func (t *Tier) pickSpillTarget(n int) int {
	best, bestFree, bestHead := -1, -1, -1
	for _, t32 := range t.rackPeers[t.rackOf[n]] {
		c := int(t32)
		if c == n || t.dead[c] {
			continue
		}
		free, live := t.spill.Free(c), t.spill.Live(c)
		if free == 0 && live == 0 {
			continue // no region at all
		}
		head := t.lrus[c].FreeSlots(int64(t.docBytes))
		if free > bestFree || (free == bestFree && head > bestHead) {
			best, bestFree, bestHead = c, free, head
		}
	}
	if best < 0 && !t.dead[n] && (t.spill.Free(n) > 0 || t.spill.Live(n) > 0) {
		best = n
	}
	return best
}

// Audit checks the tier's ground truth for coherence: every occupied
// slab slot (main or spill) is bound to exactly the document whose
// metadata names it, every placed document names an occupied slot, and
// each node's LRU holds exactly its occupied main slots. A document
// resident in two slots, or a slot whose resident's metadata points
// elsewhere, is a lost/duplicated placement — the corruption class the
// spill and rebalance races must never produce. It reads local state
// only (zero simulated cost).
func (t *Tier) Audit() error {
	for n := range t.slotDoc {
		occ := 0
		for s, d := range t.slotDoc[n] {
			if d < 0 {
				continue
			}
			if int32(s) < t.mainSlots[n] {
				occ++
			}
			if t.docNode[d] != int32(n) || t.docSlot[d] != int32(s) {
				return fmt.Errorf("coopcache: slot binding broken: slotDoc[%d][%d]=%d but docNode=%d docSlot=%d",
					n, s, d, t.docNode[d], t.docSlot[d])
			}
		}
		if got := t.lrus[n].Len(); got != occ {
			return fmt.Errorf("coopcache: node %d: LRU holds %d members but %d main slots occupied", n, got, occ)
		}
	}
	for d, n := range t.docNode {
		if n < 0 {
			continue
		}
		s := t.docSlot[d]
		if s < 0 || int(s) >= len(t.slotDoc[n]) || t.slotDoc[n][s] != int32(d) {
			return fmt.Errorf("coopcache: doc %d metadata names (%d,%d) but the slot disagrees", d, n, s)
		}
	}
	return nil
}
