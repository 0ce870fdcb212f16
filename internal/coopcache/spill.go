package coopcache

// spillRegions manages the reserved victim regions of a cooperative
// cache tier — the paper's filecache idea (a cluster-wide victim cache
// over aggregate memory) applied to the Tier's slabs: when a
// node's LRU evicts a document, the evictor demotes it into a rack
// neighbor's spill region instead of dropping it, and a later miss
// becomes a one-hop remote cache read.
//
// Each node's region is a contiguous run of slab slots past its main
// LRU slots. spillRegions tracks, per node, which region slots are
// free and — because spilled documents sit outside any LRU — the FIFO
// order of live claims, so a full region reclaims its oldest resident
// first. The FIFO is a generation-stamped ring: Claim and Release bump
// the slot's generation, so a ring entry whose stamp no longer matches
// is a tombstone skipped on pop. The ring compacts in place when full;
// nothing on the claim/release/reclaim path allocates.
//
// spillRegions is bookkeeping only (hint state the spill workers
// consult at decision instants); the demotion's wire cost — the
// one-sided Write of the victim bytes and the directory redirect CAS —
// is charged by the caller.

type spillRegion struct {
	base int32    // first absolute slab slot of the region
	free []int32  // stack of free region-local indices
	gen  []uint32 // per local slot: bumped on every claim and release
	ring []uint64 // FIFO of packed (gen<<32 | local) claim records
	head int      // ring read position
	n    int      // ring entries (live + tombstones)
	live int      // claims outstanding
}

// spillRegions is the per-node spill-slot allocator of one cache tier.
type spillRegions struct {
	regs []spillRegion
}

// newSpillRegions builds the allocator: node i's region covers absolute
// slab slots bases[i] .. bases[i]+counts[i]-1. A zero count leaves the
// node without a region (it can still spill to neighbors).
func newSpillRegions(bases, counts []int32) *spillRegions {
	if len(bases) != len(counts) {
		panic("coopcache: spill bases/counts length mismatch")
	}
	sr := &spillRegions{regs: make([]spillRegion, len(bases))}
	for i := range bases {
		c := int(counts[i])
		if c <= 0 {
			continue
		}
		r := &sr.regs[i]
		r.base = bases[i]
		r.free = make([]int32, c)
		for j := range r.free {
			r.free[j] = int32(c - 1 - j) // pop order: lowest slot first
		}
		r.gen = make([]uint32, c)
		ringCap := 2 * c
		if ringCap < 4 {
			ringCap = 4
		}
		r.ring = make([]uint64, ringCap)
	}
	return sr
}

// Slots returns the size of node n's region.
func (sr *spillRegions) Slots(n int) int { return len(sr.regs[n].gen) }

// Free returns node n's free spill slots — the pressure hint target
// selection ranks neighbors by.
func (sr *spillRegions) Free(n int) int { return len(sr.regs[n].free) }

// Live returns node n's outstanding claims (reclaimable residents).
func (sr *spillRegions) Live(n int) int { return sr.regs[n].live }

// Claim takes a free spill slot on node n, returning its absolute slab
// slot index. ok is false when the region is full (or absent) — the
// caller reclaims or picks another target.
func (sr *spillRegions) Claim(n int) (slot int32, ok bool) {
	r := &sr.regs[n]
	if len(r.free) == 0 {
		return 0, false
	}
	local := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return r.base + r.claim(local), true
}

// claim stamps a new generation for local and records it in the FIFO.
func (r *spillRegion) claim(local int32) int32 {
	r.gen[local]++
	if r.n == len(r.ring) {
		r.compact()
	}
	r.ring[(r.head+r.n)%len(r.ring)] = uint64(r.gen[local])<<32 | uint64(uint32(local))
	r.n++
	r.live++
	return local
}

// Reclaim evicts node n's oldest live spill resident and immediately
// re-claims its slot for the caller, returning the absolute slab slot.
// The caller owns dropping the old resident's placement (metadata and
// directory word). ok is false when nothing is resident.
func (sr *spillRegions) Reclaim(n int) (slot int32, ok bool) {
	r := &sr.regs[n]
	for r.n > 0 {
		rec := r.ring[r.head]
		r.head = (r.head + 1) % len(r.ring)
		r.n--
		local := int32(uint32(rec))
		if uint32(rec>>32) != r.gen[local] {
			continue // tombstone: released or re-claimed since
		}
		r.live--
		return r.base + r.claim(local), true
	}
	return 0, false
}

// Touch moves a live claim to the back of the FIFO — the "used again"
// hint a spill hit records, so the reclaim order approximates LRU over
// the victim tier instead of dropping a hot resident just because it was
// demoted early. slot is the absolute slab index and must be a live
// claim (the cache tier validates residency against its slot metadata
// before serving the hit that touches); a slot outside the region is
// ignored.
func (sr *spillRegions) Touch(n int, slot int32) {
	r := &sr.regs[n]
	if len(r.gen) == 0 {
		return
	}
	local := slot - r.base
	if local < 0 || int(local) >= len(r.gen) {
		return
	}
	// Re-stamping tombstones the old ring record and appends a fresh one.
	r.live--
	r.claim(local)
}

// Release undoes a claim (a failed demotion, or a spill resident
// dropped by invalidation), returning the slot to the free stack. slot
// is the absolute slab index Claim/Reclaim returned.
func (sr *spillRegions) Release(n int, slot int32) {
	r := &sr.regs[n]
	local := slot - r.base
	r.gen[local]++ // tombstone the FIFO record
	r.free = append(r.free, local)
	r.live--
}

// compact drops tombstoned records so the ring never grows: live
// records are repacked contiguously from head, preserving FIFO order
// (the write index trails the read index, so nothing unread is
// clobbered). Live claims are bounded by the region size and the ring
// holds twice that, so after compaction there is always room.
func (r *spillRegion) compact() {
	w := 0
	for i := 0; i < r.n; i++ {
		rec := r.ring[(r.head+i)%len(r.ring)]
		local := int32(uint32(rec))
		if uint32(rec>>32) == r.gen[local] {
			r.ring[(r.head+w)%len(r.ring)] = rec
			w++
		}
	}
	r.n = w
}
