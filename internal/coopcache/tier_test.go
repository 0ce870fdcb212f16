package coopcache

import (
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// tierEnv builds a 6-node network with a tier over cache nodes 1-4 (one
// rack) and returns requester devices on nodes 0 and 5.
func tierEnv(t *testing.T, cfg TierConfig) (*sim.Env, *Tier, *verbs.Device, *verbs.Device) {
	t.Helper()
	env := sim.NewEnv(1)
	nw := verbs.NewNetworkWith(env, fabric.DefaultParams(), verbs.TransportConfig{})
	nodes := make([]*cluster.Node, 6)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 4, 1<<24)
	}
	cfg.RackSize = 32
	tier := NewTier(nw, nodes[1:5], cfg)
	tier.Start(func(err error) { t.Error(err) })
	return env, tier, nw.Attach(nodes[0]), nw.Attach(nodes[5])
}

// sameHome returns two distinct documents homed on the same cache node.
func sameHome(tier *Tier) (x, y int) {
	for y = 1; tier.home(y) != tier.home(0); y++ {
	}
	return 0, y
}

// word returns doc's primary directory word (0 when none).
func word(tier *Tier, doc int) Entry {
	var w Entry
	tier.dir.DebugPlacements(func(d int, e Entry, replica bool) {
		if d == doc && !replica {
			w = e
		}
	})
	return w
}

func audit(t *testing.T, tier *Tier) {
	t.Helper()
	if err := tier.Audit(); err != nil {
		t.Fatal(err)
	}
}

// measuredSteps is the number of 1 ms steps the allocation gates measure.
const measuredSteps = 20

// runChurn drives the tier's miss/install loop over every document in
// turn from one daemon and checks the steady state allocates nothing
// per step (hundreds of operations each). It fails unless the measured
// steps evicted at least once per step on average, so a loop that parks
// after priming (leaving only an in-flight straggler) cannot pass, and
// returns the tier's stats after the priming step so callers can check
// other churn the window must have done.
func runChurn(t *testing.T, env *sim.Env, tier *Tier, dev *verbs.Device, docs, docBytes int) (primed TierStats) {
	t.Helper()
	env.GoDaemon("churn", func(p *sim.Proc) {
		scr := new(Scratch)
		buf := make([]byte, docBytes)
		for doc := 0; ; doc = (doc + 1) % docs {
			hit, err := tier.Read(p, dev, doc, buf, scr)
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				if err := tier.Install(p, dev, doc, buf, scr); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	limit := sim.Time(0)
	step := func() {
		limit = limit.Add(time.Millisecond)
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	step() // prime the LRU free lists, spill rings and verbs pools
	primed = tier.Stats()
	if allocs := testing.AllocsPerRun(measuredSteps, step); allocs > 2 {
		t.Errorf("churn steady state allocates %.1f/step, want ~0", allocs)
	}
	if n := tier.Stats().Evictions - primed.Evictions; n < measuredSteps {
		t.Fatalf("measured steps drove %d evictions, want at least %d", n, measuredSteps)
	}
	return primed
}

// TestTierChurnSteadyStateAllocationFree drives the full
// evict → invalidate → install → publish loop — every iteration a miss
// that overflows a slab: the scratch buffers, the LRU free list and the
// slot free stacks absorb all churn.
func TestTierChurnSteadyStateAllocationFree(t *testing.T) {
	const docs, docBytes = 256, 512
	env, tier, dev, _ := tierEnv(t, TierConfig{Docs: docs, DocBytes: docBytes, Frac: 0.1})
	runChurn(t, env, tier, dev, docs, docBytes)
	audit(t, tier)
}

// TestTierSpillChurnSteadyStateAllocationFree is the same gate with the
// demotion workers armed: the spill rings, the region free stacks and
// the gen-stamped FIFO absorb all victim-tier churn.
func TestTierSpillChurnSteadyStateAllocationFree(t *testing.T) {
	const docs, docBytes = 256, 512
	env, tier, dev, _ := tierEnv(t, TierConfig{Docs: docs, DocBytes: docBytes, Frac: 0.1, Spill: true})
	primed := runChurn(t, env, tier, dev, docs, docBytes)
	if n := tier.Stats().Spills - primed.Spills; n < measuredSteps {
		t.Fatalf("measured steps drove %d demotions, want at least %d", n, measuredSteps)
	}
	if tier.stats.SpillReclaims == 0 {
		t.Fatal("regions never filled — reclaim path unexercised")
	}
	audit(t, tier)
}

// TestTierStaleReadClearsObservedWord turns a slot over between a
// reader's directory read and its slab read: the reader must report a
// miss, count one stale read, and leave the evicted document with no
// directory word while the new resident's word stands.
func TestTierStaleReadClearsObservedWord(t *testing.T) {
	// A tiny fraction leaves every node one main slot; large documents
	// keep the slab read in flight long after the lookup returns.
	const docBytes = 64 << 10
	env, tier, devA, devB := tierEnv(t, TierConfig{Docs: 64, DocBytes: docBytes, Frac: 0.01})
	x, y := sameHome(tier)
	var hit bool
	var reads int64
	env.Go("reader", func(p *sim.Proc) {
		scr, buf := new(Scratch), make([]byte, docBytes)
		if err := tier.Install(p, devA, x, buf, scr); err != nil {
			t.Error(err)
			return
		}
		if ok, err := tier.Read(p, devA, x, buf, scr); err != nil || !ok {
			t.Errorf("warm read of x: hit=%v err=%v", ok, err)
			return
		}
		t0 := env.Now()
		if _, err := tier.dir.Lookup(p, devA, x, scr.dirWord[:]); err != nil {
			t.Error(err)
			return
		}
		lookup := time.Duration(env.Now() - t0)
		env.Go("installer", func(q *sim.Proc) {
			q.Sleep(lookup + 1) // just after the lookup: the slab read is in flight
			if err := tier.Install(q, devB, y, make([]byte, docBytes), new(Scratch)); err != nil {
				t.Error(err)
			}
		})
		reads = devA.Reads
		var err error
		if hit, err = tier.Read(p, devA, x, buf, scr); err != nil {
			t.Error(err)
		}
		reads = devA.Reads - reads
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if hit || tier.stats.StaleReads != 1 || reads != 2 {
		t.Fatalf("raced read: hit=%v staleReads=%d reads=%d, want a miss and 1 stale read after the slab read",
			hit, tier.stats.StaleReads, reads)
	}
	if w := word(tier, x); w != 0 {
		t.Errorf("evicted doc still has directory word %#x", w)
	}
	if w, want := word(tier, y), PackEntry(int(tier.docNode[y]), int(tier.docSlot[y])); w != want {
		t.Errorf("new resident's word = %#x, want %#x", w, want)
	}
	audit(t, tier)
}

// TestTierRacingInstallersLeaveOneCopy starts two installers of the same
// document at one instant: the second finds the first's claim and
// refreshes it, so exactly one slot holds the document, its word names
// that slot, and nothing is rolled back.
func TestTierRacingInstallersLeaveOneCopy(t *testing.T) {
	const docBytes = 512
	env, tier, devA, devB := tierEnv(t, TierConfig{Docs: 64, DocBytes: docBytes, Frac: 0.01})
	const doc = 5
	for _, dev := range []*verbs.Device{devA, devB} {
		dev := dev
		env.Go("installer", func(p *sim.Proc) {
			if err := tier.Install(p, dev, doc, make([]byte, docBytes), new(Scratch)); err != nil {
				t.Error(err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	n, s := int(tier.docNode[doc]), int(tier.docSlot[doc])
	if n < 0 {
		t.Fatal("neither installer placed the document")
	}
	if w := word(tier, doc); w != PackEntry(n, s) {
		t.Errorf("word = %#x, want %#x for the one placement", w, PackEntry(n, s))
	}
	held := 0
	for _, sd := range tier.slotDoc {
		for _, d := range sd {
			if d == doc {
				held++
			}
		}
	}
	if held != 1 || tier.stats.Rollbacks != 0 {
		t.Errorf("document held in %d slots with %d rollbacks, want 1 and 0", held, tier.stats.Rollbacks)
	}
	audit(t, tier)
}

// TestTierSpillRedirectLosesToClear evicts a document into the spill
// worker while a reader chases its old word: the reader's clear lands
// before the worker's redirect CAS, so the demotion must undo its spill
// claim rather than leave a slot nobody can find.
func TestTierSpillRedirectLosesToClear(t *testing.T) {
	// Large documents keep the worker's spill write in flight well past
	// the reader's lookup and clear.
	const docBytes = 64 << 10
	env, tier, devA, devB := tierEnv(t, TierConfig{Docs: 64, DocBytes: docBytes, Frac: 0.01, Spill: true})
	x, y := sameHome(tier)
	var hit bool
	env.Go("setup", func(p *sim.Proc) {
		if err := tier.Install(p, devA, x, make([]byte, docBytes), new(Scratch)); err != nil {
			t.Error(err)
			return
		}
		// Evict x into the spill worker; the reader starts at the same
		// instant, right after the eviction decision.
		env.Go("installer", func(q *sim.Proc) {
			if err := tier.Install(q, devB, y, make([]byte, docBytes), new(Scratch)); err != nil {
				t.Error(err)
			}
		})
		env.Go("reader", func(q *sim.Proc) {
			var err error
			if hit, err = tier.Read(q, devA, x, make([]byte, docBytes), new(Scratch)); err != nil {
				t.Error(err)
			}
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if hit || st.StaleReads != 1 {
		t.Fatalf("reader: hit=%v staleReads=%d, want a stale miss", hit, st.StaleReads)
	}
	if st.SpillRedirectLost != 1 || st.Spills != 0 {
		t.Fatalf("redirectLost=%d spills=%d, want the redirect lost and nothing spilled", st.SpillRedirectLost, st.Spills)
	}
	if tier.docNode[x] != -1 || word(tier, x) != 0 {
		t.Errorf("x still placed at node %d with word %#x", tier.docNode[x], word(tier, x))
	}
	for n := range tier.lrus {
		if live := tier.spill.Live(n); live != 0 {
			t.Errorf("node %d keeps %d spill claims after the undone demotion", n, live)
		}
	}
	audit(t, tier)
}
