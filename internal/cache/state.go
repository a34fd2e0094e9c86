package cache

import "fmt"

// This file adds the warm-state half of checkpoint/restore for the memory
// hierarchy: serializable deep copies of every cache level's tag/dirty/
// recency state plus the stream prefetcher, and functional touch entry
// points (TouchData, TouchInst) that apply the content side-effects of an
// access — lookup, miss-path fills down the hierarchy, prefetch training —
// without any timing. MSHR state is deliberately NOT snapshotted: its
// contents are absolute completion cycles, which are meaningless to a
// restored pipeline that restarts at cycle 0, so Restore hands the new owner
// a fresh (empty) MSHR pool.

// ChunkState mirrors one lazily-allocated chunk. Nil Tags marks an untouched
// chunk, preserved as such so a restored cache has an identical
// materialization pattern (and identical future behaviour) to the original.
type ChunkState struct {
	Tags  []uint64 `json:"tags,omitempty"`
	Dirty []bool   `json:"dirty,omitempty"`
	Order []uint8  `json:"order,omitempty"`
}

// CacheState is a deep copy of one cache level's mutable state.
type CacheState struct {
	Chunks []ChunkState `json:"chunks"`
	Hits   uint64       `json:"hits"`
	Misses uint64       `json:"misses"`
}

// State deep-copies the cache's mutable state.
func (c *Cache) State() CacheState {
	s := CacheState{Chunks: make([]ChunkState, len(c.chunks)), Hits: c.Hits, Misses: c.Misses}
	for i, ch := range c.chunks {
		if !ch.live {
			continue
		}
		s.Chunks[i] = ChunkState{
			Tags:  append([]uint64(nil), ch.tags...),
			Dirty: append([]bool(nil), ch.dirty...),
			Order: append([]uint8(nil), ch.order...),
		}
	}
	return s
}

// Restore overwrites the cache's mutable state from a snapshot taken on a
// cache with the same geometry. Shape mismatches panic.
func (c *Cache) Restore(s CacheState) {
	if len(s.Chunks) != len(c.chunks) {
		panic(fmt.Sprintf("cache: Restore chunk count mismatch: %d != %d", len(s.Chunks), len(c.chunks)))
	}
	for i, ch := range s.Chunks {
		if ch.Tags == nil {
			c.chunks[i].live = false
			continue
		}
		if len(ch.Tags) != chunkSets*c.ways {
			panic("cache: Restore chunk geometry mismatch")
		}
		c.chunks[i].fill(ch.Tags, ch.Dirty, ch.Order)
	}
	c.Hits, c.Misses = s.Hits, s.Misses
}

// StreamEntry mirrors one prefetcher stream for serialization.
type StreamEntry struct {
	Page     uint64 `json:"page"`
	LastLine uint64 `json:"last_line"`
	Dir      int64  `json:"dir"`
	Count    int    `json:"count"`
	Valid    bool   `json:"valid"`
}

// HierState is the complete serializable warm state of a Hierarchy (minus
// MSHRs, which carry only absolute-cycle timing — see the file comment).
type HierState struct {
	L1I CacheState `json:"l1i"`
	L1D CacheState `json:"l1d"`
	L2  CacheState `json:"l2"`
	LLC CacheState `json:"llc"`

	Pref []StreamEntry `json:"pref,omitempty"` // nil when prefetch disabled

	DemandMisses  uint64 `json:"demand_misses"`
	PrefetchFills uint64 `json:"prefetch_fills"`
}

// State deep-copies the hierarchy's warm state.
func (h *Hierarchy) State() *HierState {
	s := &HierState{
		L1I:           h.L1I.State(),
		L1D:           h.L1D.State(),
		L2:            h.L2.State(),
		LLC:           h.LLC.State(),
		DemandMisses:  h.DemandMisses,
		PrefetchFills: h.PrefetchFills,
	}
	if h.pref != nil {
		s.Pref = make([]StreamEntry, len(h.pref.entries))
		for i, e := range h.pref.entries {
			s.Pref[i] = StreamEntry{Page: e.page, LastLine: e.lastLine, Dir: e.dir, Count: e.count, Valid: e.valid}
		}
	}
	return s
}

// Restore overwrites the hierarchy's warm state from a snapshot taken on a
// hierarchy built from the same config. MSHRs are reset to empty.
func (h *Hierarchy) Restore(s *HierState) {
	h.L1I.Restore(s.L1I)
	h.L1D.Restore(s.L1D)
	h.L2.Restore(s.L2)
	h.LLC.Restore(s.LLC)
	if h.pref != nil {
		if len(s.Pref) != len(h.pref.entries) {
			panic("cache: Restore prefetcher stream count mismatch")
		}
		for i, e := range s.Pref {
			h.pref.entries[i] = streamEntry{page: e.Page, lastLine: e.LastLine, dir: e.Dir, count: e.Count, valid: e.Valid}
		}
	} else if len(s.Pref) != 0 {
		panic("cache: Restore snapshot has prefetcher state but prefetch is disabled")
	}
	h.DemandMisses, h.PrefetchFills = s.DemandMisses, s.PrefetchFills
	h.mshrs.reset(h.cfg.MSHRs)
}

// fill makes the chunk live with a copy of the given arrays, reusing its
// own storage when large enough.
func (ch *cacheChunk) fill(tags []uint64, dirty []bool, order []uint8) {
	ch.live = true
	ch.tags = append(ch.tags[:0], tags...)
	ch.dirty = append(ch.dirty[:0], dirty...)
	ch.order = append(ch.order[:0], order...)
}

// copyFrom overwrites c's mutable state with src's, which must share the
// same geometry. Destination chunk arrays are reused.
func (c *Cache) copyFrom(src *Cache) {
	for i := range src.chunks {
		sch := &src.chunks[i]
		if !sch.live {
			c.chunks[i].live = false
			continue
		}
		c.chunks[i].fill(sch.tags, sch.dirty, sch.order)
	}
	c.Hits, c.Misses = src.Hits, src.Misses
}

// CopyFrom overwrites h's warm state with src's. Both hierarchies must be
// built from the same config — the in-process fast path equivalent to
// h.Restore(src.State()) without materializing the serializable snapshot.
// MSHRs are reset to empty, exactly as Restore does.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1I.copyFrom(src.L1I)
	h.L1D.copyFrom(src.L1D)
	h.L2.copyFrom(src.L2)
	h.LLC.copyFrom(src.LLC)
	if h.pref != nil {
		copy(h.pref.entries, src.pref.entries)
	}
	h.DemandMisses, h.PrefetchFills = src.DemandMisses, src.PrefetchFills
	h.mshrs.reset(h.cfg.MSHRs)
}

// TouchData applies the content side-effects of a data access during
// functional fast-forward: lookup, and on a miss the fill walk down the
// hierarchy plus prefetcher training — everything AccessData does except
// MSHR booking and latency accounting.
func (h *Hierarchy) TouchData(addr uint64, write bool) {
	if h.L1D.Lookup(addr, write) {
		return
	}
	h.DemandMisses++
	h.missLatency(addr, write, 0)
	h.L1D.Fill(addr, write)
	if h.pref != nil {
		h.runPrefetch(addr, 0)
	}
}

// TouchInst applies the content side-effects of an instruction fetch during
// functional fast-forward, including the next-line I-prefetch.
func (h *Hierarchy) TouchInst(addr uint64) {
	if h.L1I.Lookup(addr, false) {
		return
	}
	h.missLatency(addr, false, 0)
	h.L1I.Fill(addr, false)
	next := h.L1I.LineAddr(addr) + uint64(1)<<h.L1I.lineShift
	if !h.L1I.Contains(next) {
		h.L1I.Fill(next, false)
		if !h.L2.Contains(next) {
			h.L2.Fill(next, false)
		}
	}
}

// InstLineAddr returns the I-cache line address containing addr — exported
// for the fast-forward driver's same-line touch filter.
func (h *Hierarchy) InstLineAddr(addr uint64) uint64 { return h.L1I.LineAddr(addr) }
