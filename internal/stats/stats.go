// Package stats provides the counters, histograms, and the per-register
// lifetime ledger used to produce the paper's analysis figures (Figs 4, 6,
// 12, 14).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a dense integer-bucketed histogram with an overflow bucket.
type Histogram struct {
	buckets  []uint64
	overflow uint64
	total    uint64
	sum      float64
}

// NewHistogram creates a histogram for values in [0, maxValue]; larger values
// land in the overflow bucket.
func NewHistogram(maxValue int) *Histogram {
	return &Histogram{buckets: make([]uint64, maxValue+1)}
}

// Add records one observation of v (negative values clamp to 0).
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v < len(h.buckets) {
		h.buckets[v]++
	} else {
		h.overflow++
	}
	h.total++
	h.sum += float64(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the average observed value (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Bucket returns the count for value v; out-of-range values return the
// overflow bucket.
func (h *Histogram) Bucket(v int) uint64 {
	if v >= 0 && v < len(h.buckets) {
		return h.buckets[v]
	}
	return h.overflow
}

// Fraction returns the fraction of observations equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Bucket(v)) / float64(h.total)
}

// Percentile returns the smallest value whose cumulative fraction is >= p
// (p in [0,1]). Overflowed observations report len(buckets).
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for v, c := range h.buckets {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.buckets)
}

// Merge folds other into h bucket-wise in O(buckets). In-range values of
// other that exceed h's maximum land in h's overflow bucket; the running
// sum is carried over exactly, so Mean is preserved.
func (h *Histogram) Merge(other *Histogram) {
	for v, n := range other.buckets {
		if n == 0 {
			continue
		}
		if v < len(h.buckets) {
			h.buckets[v] += n
		} else {
			h.overflow += n
		}
	}
	h.overflow += other.overflow
	h.total += other.total
	h.sum += other.sum
}

// Handle is a dense index into a Counters set, interned once per name.
// Incrementing through a handle is a slice index — no string hashing and no
// allocation — which is what the simulation hot path uses.
type Handle int32

// Counters is a named counter set with deterministic iteration order.
// Names are interned into Handle indices backed by a flat value array;
// Get reads a counter by name from the same storage, so both views always
// agree.
type Counters struct {
	vals  []uint64
	names []string          // handle -> name
	index map[string]Handle // name -> handle
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{index: make(map[string]Handle)} }

// Handle interns name and returns its dense index. Callers on a hot path
// resolve their handles once at construction and then use Add/Value.
func (c *Counters) Handle(name string) Handle {
	if h, ok := c.index[name]; ok {
		return h
	}
	h := Handle(len(c.vals))
	c.index[name] = h
	c.names = append(c.names, name)
	c.vals = append(c.vals, 0)
	return h
}

// Add adds delta to the counter identified by h (the hot path).
func (c *Counters) Add(h Handle, delta uint64) { c.vals[h] += delta }

// Reset zeroes every counter in place. Interned names and their handles
// survive (a zero counter is invisible to Names, Snapshot, and String), so
// handles resolved before the reset stay valid.
func (c *Counters) Reset() { clear(c.vals) }

// Value returns the value of the counter identified by h.
func (c *Counters) Value(h Handle) uint64 { return c.vals[h] }

// Get returns the value of the named counter (0 if never interned).
func (c *Counters) Get(name string) uint64 {
	if h, ok := c.index[name]; ok {
		return c.vals[h]
	}
	return 0
}

// Names returns the names of all counters with a non-zero value, sorted.
// Interned-but-never-incremented counters are omitted, so pre-resolving
// handles at construction does not change the rendered counter set.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.names))
	for h, n := range c.names {
		if c.vals[h] != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the non-zero counters as a name->value map (for
// manifests). The map is freshly allocated and independent of c.
func (c *Counters) Snapshot() map[string]uint64 {
	m := make(map[string]uint64, len(c.names))
	for h, n := range c.names {
		if c.vals[h] != 0 {
			m[n] = c.vals[h]
		}
	}
	return m
}

// String renders the counters one per line in sorted name order.
func (c *Counters) String() string {
	var b strings.Builder
	for _, n := range c.Names() {
		fmt.Fprintf(&b, "%-40s %d\n", n, c.vals[c.index[n]])
	}
	return b.String()
}

// RegionKind classifies the code between a register's allocation and its
// redefinition (Figure 6's three region types plus non-region).
type RegionKind int

const (
	// RegionNone: the register was redefined across at least one
	// conditional branch or indirect jump AND at least one
	// exception-causing instruction, or never redefined in-window.
	RegionNone RegionKind = iota
	// RegionNonBranch: no conditional branches or indirect jumps between
	// rename and redefine (but possibly exception-causing instructions).
	RegionNonBranch
	// RegionNonExcept: no exception-causing instructions between rename
	// and redefine (but possibly branches).
	RegionNonExcept
	// RegionAtomic: neither branches nor exception-causing instructions —
	// the paper's atomic commit region.
	RegionAtomic
)

func (k RegionKind) String() string {
	switch k {
	case RegionNonBranch:
		return "non-branch"
	case RegionNonExcept:
		return "non-except"
	case RegionAtomic:
		return "atomic"
	default:
		return "none"
	}
}

// RegLifetime records the event cycles of one physical-register allocation,
// following the §3.1 life-of-a-register model. A zero cycle means the event
// never happened during the simulation window.
type RegLifetime struct {
	Renamed      uint64 // I1 renamed: allocation cycle
	LastConsumed uint64 // I2 consumed: last consumer executes
	Redefined    uint64 // I3 redefined: next producer renames
	Precommitted uint64 // I3 precommitted
	Committed    uint64 // I3 committed: baseline release point
	Consumers    int    // number of consumers renamed
	Region       RegionKind
	WrongPath    bool // allocation was on a flushed path
}

// Complete reports whether the full event chain was observed (the allocation
// was redefined and the redefiner committed inside the window).
func (l *RegLifetime) Complete() bool {
	return !l.WrongPath && l.Redefined > 0 && l.Committed > 0
}

// endOfUse returns the cycle at which the register became dead: the later of
// last consumption and redefinition (§3.1: In-use ends when no pending
// consumers remain and the mapping has been redefined).
func (l *RegLifetime) endOfUse() uint64 {
	if l.LastConsumed > l.Redefined {
		return l.LastConsumed
	}
	return l.Redefined
}

// LifetimeLedger accumulates register lifetimes and computes the Figure 4
// state split and the Figure 14 event gaps.
type LifetimeLedger struct {
	// Totals of cycles spent in each lifecycle state, over completed
	// allocations.
	InUse          uint64
	Unused         uint64
	VerifiedUnused uint64

	// Figure 14 accumulators, restricted to atomic-region allocations.
	atomicRenameToRedefine uint64
	atomicRenameToConsume  uint64
	atomicRenameToCommit   uint64
	atomicCount            uint64

	// Region classification tallies over all completed allocations
	// (Figure 6).
	regionCounts [4]uint64

	// Consumer count histogram over atomic-region allocations (Figure 12).
	ConsumerHist *Histogram

	completed uint64
}

// NewLifetimeLedger returns an empty ledger.
func NewLifetimeLedger() *LifetimeLedger {
	return &LifetimeLedger{ConsumerHist: NewHistogram(16)}
}

// Reset empties the ledger in place, keeping its histogram storage.
func (g *LifetimeLedger) Reset() {
	h := g.ConsumerHist
	clear(h.buckets)
	*h = Histogram{buckets: h.buckets}
	*g = LifetimeLedger{ConsumerHist: h}
}

// Record folds one finished allocation into the ledger. Allocations that
// never completed their event chain (wrong-path or still live at end of
// simulation) only contribute to region tallies if redefined.
func (g *LifetimeLedger) Record(l *RegLifetime) {
	if l.Redefined > 0 && !l.WrongPath {
		g.regionCounts[l.Region]++
	}
	if !l.Complete() {
		return
	}
	g.completed++

	end := l.endOfUse()
	if end < l.Renamed {
		end = l.Renamed
	}
	pre := l.Precommitted
	if pre < end {
		pre = end // precommit can only matter after end-of-use
	}
	commit := l.Committed
	if commit < pre {
		commit = pre
	}
	g.InUse += end - l.Renamed
	g.Unused += pre - end
	g.VerifiedUnused += commit - pre

	if l.Region == RegionAtomic {
		g.atomicCount++
		g.atomicRenameToRedefine += l.Redefined - l.Renamed
		if l.LastConsumed >= l.Renamed {
			g.atomicRenameToConsume += l.LastConsumed - l.Renamed
		}
		g.atomicRenameToCommit += l.Committed - l.Renamed
		g.ConsumerHist.Add(l.Consumers)
	}
}

// Completed returns the number of fully observed allocations.
func (g *LifetimeLedger) Completed() uint64 { return g.completed }

// StateFractions returns the Figure 4 split: fraction of total allocated
// register cycles spent in-use, unused, and verified-unused.
func (g *LifetimeLedger) StateFractions() (inUse, unused, verified float64) {
	total := float64(g.InUse + g.Unused + g.VerifiedUnused)
	if total == 0 {
		return 0, 0, 0
	}
	return float64(g.InUse) / total, float64(g.Unused) / total, float64(g.VerifiedUnused) / total
}

// RegionFractions returns the Figure 6 ratios: the fraction of completed
// allocations whose rename→redefine window is non-branch, non-except, and
// atomic. Note atomic regions are counted in all three (an atomic region is
// by definition also non-branch and non-except), matching the paper's
// cumulative presentation.
func (g *LifetimeLedger) RegionFractions() (nonBranch, nonExcept, atomic float64) {
	var total uint64
	for _, c := range g.regionCounts {
		total += c
	}
	if total == 0 {
		return 0, 0, 0
	}
	a := float64(g.regionCounts[RegionAtomic])
	nb := float64(g.regionCounts[RegionNonBranch]) + a
	ne := float64(g.regionCounts[RegionNonExcept]) + a
	return nb / float64(total), ne / float64(total), a / float64(total)
}

// EventGaps returns the Figure 14 averages over atomic-region allocations:
// mean cycles from rename to redefine, to last consume, and to redefiner
// commit.
func (g *LifetimeLedger) EventGaps() (toRedefine, toConsume, toCommit float64) {
	if g.atomicCount == 0 {
		return 0, 0, 0
	}
	n := float64(g.atomicCount)
	return float64(g.atomicRenameToRedefine) / n,
		float64(g.atomicRenameToConsume) / n,
		float64(g.atomicRenameToCommit) / n
}

// Merge folds other into g.
func (g *LifetimeLedger) Merge(other *LifetimeLedger) {
	g.InUse += other.InUse
	g.Unused += other.Unused
	g.VerifiedUnused += other.VerifiedUnused
	g.atomicRenameToRedefine += other.atomicRenameToRedefine
	g.atomicRenameToConsume += other.atomicRenameToConsume
	g.atomicRenameToCommit += other.atomicRenameToCommit
	g.atomicCount += other.atomicCount
	g.completed += other.completed
	for i := range g.regionCounts {
		g.regionCounts[i] += other.regionCounts[i]
	}
	g.ConsumerHist.Merge(other.ConsumerHist)
}
