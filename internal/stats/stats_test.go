package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 2, 7, -3} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Bucket(1) != 2 {
		t.Errorf("Bucket(1) = %d, want 2", h.Bucket(1))
	}
	if h.Bucket(0) != 2 { // includes the clamped -3
		t.Errorf("Bucket(0) = %d, want 2", h.Bucket(0))
	}
	if h.Bucket(99) != 1 { // the overflowed 7
		t.Errorf("overflow = %d, want 1", h.Bucket(99))
	}
	if got := h.Fraction(1); math.Abs(got-2.0/6.0) > 1e-12 {
		t.Errorf("Fraction(1) = %v", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.Add(2)
	h.Add(4)
	if got := h.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	empty := NewHistogram(10)
	if empty.Mean() != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100)
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if got := h.Percentile(0.5); got != 50 {
		t.Errorf("P50 = %d, want 50", got)
	}
	if got := h.Percentile(0.99); got != 99 {
		t.Errorf("P99 = %d, want 99", got)
	}
	if got := h.Percentile(1.0); got != 100 {
		t.Errorf("P100 = %d, want 100", got)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add(c.Handle("commits"), 10)
	c.Add(c.Handle("commits"), 5)
	c.Add(c.Handle("flushes"), 1)
	if c.Get("commits") != 15 {
		t.Errorf("commits = %d", c.Get("commits"))
	}
	if c.Get("absent") != 0 {
		t.Error("absent counter should read 0")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "commits" || names[1] != "flushes" {
		t.Errorf("Names = %v", names)
	}
	if c.String() == "" {
		t.Error("String should be non-empty")
	}
}

// TestCountersHandleStringInterop pins the naming contract: a handle and
// its name (re-interned or read back with Get) reach the same counter.
func TestCountersHandleStringInterop(t *testing.T) {
	c := NewCounters()
	h := c.Handle("release.atr")
	if h != c.Handle("release.atr") {
		t.Error("re-interning the same name returned a different handle")
	}
	c.Add(h, 7)
	c.Add(c.Handle("release.atr"), 3)
	if c.Get("release.atr") != 10 {
		t.Errorf("Get = %d, want 10", c.Get("release.atr"))
	}
	if c.Value(h) != 10 {
		t.Errorf("Value = %d, want 10", c.Value(h))
	}
	// Interned-but-never-incremented counters must stay invisible in the
	// rendered set, so pre-resolving handles at engine construction cannot
	// change manifests or -v output.
	c.Handle("never.touched")
	for _, n := range c.Names() {
		if n == "never.touched" {
			t.Error("zero-valued interned counter leaked into Names()")
		}
	}
	if _, ok := c.Snapshot()["never.touched"]; ok {
		t.Error("zero-valued interned counter leaked into Snapshot()")
	}
}

// TestCountersMatchesMapReference drives Counters and a plain
// map[string]uint64 (the original representation) with the same random
// stream of adds, then asserts every observable — Get, sorted Names,
// Snapshot, the String rendering — matches the map.
func TestCountersMatchesMapReference(t *testing.T) {
	names := []string{"a", "bb", "release.atr", "release.er", "rename.alloc",
		"lsq.forwards", "x.y.z", "q"}
	f := func(ops []uint16) bool {
		c := NewCounters()
		ref := make(map[string]uint64)
		for _, op := range ops {
			name := names[int(op)%len(names)]
			delta := uint64(op >> 8)
			c.Add(c.Handle(name), delta)
			ref[name] += delta
		}
		for n, v := range ref {
			if c.Get(n) != v {
				return false
			}
		}
		snap := c.Snapshot()
		for n, v := range ref {
			if v == 0 {
				continue
			}
			if snap[n] != v {
				return false
			}
		}
		for n := range snap {
			if snap[n] != ref[n] {
				return false
			}
		}
		nonzero := 0
		for _, v := range ref {
			if v > 0 {
				nonzero++
			}
		}
		return len(c.Names()) == nonzero && len(snap) == nonzero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCountersSnapshotDeterministic asserts the rendered counter set is a
// pure function of the counter values: interning order, increment order,
// and access pattern must not leak into Names(), Snapshot(), or String().
func TestCountersSnapshotDeterministic(t *testing.T) {
	names := []string{"zeta", "alpha", "mid.point", "release.atr", "beta"}
	build := func(order, intern []int) *Counters {
		c := NewCounters()
		for _, i := range intern {
			c.Handle(names[i])
		}
		for _, i := range order {
			c.Add(c.Handle(names[i]), uint64(10+i))
		}
		return c
	}
	a := build([]int{0, 1, 2, 3, 4}, nil)
	b := build([]int{4, 3, 2, 1, 0}, []int{2, 0, 4, 1, 3})
	if a.String() != b.String() {
		t.Errorf("String depends on insertion order:\n%s\nvs\n%s", a.String(), b.String())
	}
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		t.Fatalf("Names lengths differ: %v vs %v", an, bn)
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Errorf("Names[%d]: %q vs %q", i, an[i], bn[i])
		}
		if i > 0 && an[i-1] >= an[i] {
			t.Errorf("Names not sorted: %q before %q", an[i-1], an[i])
		}
	}
	snap := a.Snapshot()
	snap["alpha"] = 999 // Snapshot must be a copy, not a view
	if a.Get("alpha") == 999 {
		t.Error("mutating a Snapshot changed the live counters")
	}
}

func TestLedgerStateFractions(t *testing.T) {
	g := NewLifetimeLedger()
	// Renamed at 100, last consumed 110, redefined 105, precommit 120,
	// commit 130: in-use 10, unused 10, verified-unused 10.
	g.Record(&RegLifetime{
		Renamed: 100, LastConsumed: 110, Redefined: 105,
		Precommitted: 120, Committed: 130, Consumers: 2, Region: RegionAtomic,
	})
	inUse, unused, verified := g.StateFractions()
	for name, got := range map[string]float64{"inUse": inUse, "unused": unused, "verified": verified} {
		if math.Abs(got-1.0/3.0) > 1e-12 {
			t.Errorf("%s = %v, want 1/3", name, got)
		}
	}
	if g.Completed() != 1 {
		t.Errorf("Completed = %d", g.Completed())
	}
}

func TestLedgerRedefineBeforeConsume(t *testing.T) {
	// The paper notes redefinition may precede last consumption; end-of-use
	// is the max of the two.
	g := NewLifetimeLedger()
	g.Record(&RegLifetime{
		Renamed: 10, Redefined: 12, LastConsumed: 20,
		Precommitted: 22, Committed: 30, Region: RegionAtomic, Consumers: 1,
	})
	if g.InUse != 10 { // 20-10
		t.Errorf("InUse = %d, want 10", g.InUse)
	}
	if g.Unused != 2 { // 22-20
		t.Errorf("Unused = %d, want 2", g.Unused)
	}
	if g.VerifiedUnused != 8 { // 30-22
		t.Errorf("VerifiedUnused = %d, want 8", g.VerifiedUnused)
	}
}

func TestLedgerSkipsIncomplete(t *testing.T) {
	g := NewLifetimeLedger()
	g.Record(&RegLifetime{Renamed: 5}) // never redefined
	g.Record(&RegLifetime{Renamed: 5, Redefined: 9, Committed: 12, WrongPath: true})
	if g.Completed() != 0 {
		t.Errorf("Completed = %d, want 0", g.Completed())
	}
	nb, ne, a := g.RegionFractions()
	if nb != 0 || ne != 0 || a != 0 {
		t.Error("incomplete allocations should not contribute to region fractions")
	}
}

func TestLedgerRegionFractionsCumulative(t *testing.T) {
	g := NewLifetimeLedger()
	add := func(k RegionKind) {
		g.Record(&RegLifetime{Renamed: 1, Redefined: 2, LastConsumed: 2,
			Precommitted: 3, Committed: 4, Region: k})
	}
	add(RegionAtomic)
	add(RegionNonBranch)
	add(RegionNonExcept)
	add(RegionNone)
	nb, ne, a := g.RegionFractions()
	if a != 0.25 {
		t.Errorf("atomic = %v, want 0.25", a)
	}
	if nb != 0.5 { // atomic + non-branch
		t.Errorf("non-branch = %v, want 0.5", nb)
	}
	if ne != 0.5 { // atomic + non-except
		t.Errorf("non-except = %v, want 0.5", ne)
	}
}

func TestLedgerEventGaps(t *testing.T) {
	g := NewLifetimeLedger()
	g.Record(&RegLifetime{Renamed: 100, Redefined: 104, LastConsumed: 110,
		Precommitted: 112, Committed: 120, Region: RegionAtomic, Consumers: 3})
	g.Record(&RegLifetime{Renamed: 200, Redefined: 202, LastConsumed: 204,
		Precommitted: 205, Committed: 210, Region: RegionAtomic, Consumers: 1})
	re, co, cm := g.EventGaps()
	if re != 3 { // (4+2)/2
		t.Errorf("toRedefine = %v, want 3", re)
	}
	if co != 7 { // (10+4)/2
		t.Errorf("toConsume = %v, want 7", co)
	}
	if cm != 15 { // (20+10)/2
		t.Errorf("toCommit = %v, want 15", cm)
	}
	if g.ConsumerHist.Bucket(3) != 1 || g.ConsumerHist.Bucket(1) != 1 {
		t.Error("consumer histogram not populated")
	}
}

func TestLedgerMerge(t *testing.T) {
	a := NewLifetimeLedger()
	b := NewLifetimeLedger()
	l := &RegLifetime{Renamed: 1, Redefined: 3, LastConsumed: 5,
		Precommitted: 6, Committed: 9, Region: RegionAtomic, Consumers: 2}
	a.Record(l)
	b.Record(l)
	a.Merge(b)
	if a.Completed() != 2 {
		t.Errorf("merged Completed = %d, want 2", a.Completed())
	}
	if a.InUse != 8 {
		t.Errorf("merged InUse = %d, want 8", a.InUse)
	}
	if a.ConsumerHist.Bucket(2) != 2 {
		t.Errorf("merged hist = %d, want 2", a.ConsumerHist.Bucket(2))
	}
}

// Property: state fractions always sum to 1 for any valid event ordering.
func TestStateFractionsSumToOne(t *testing.T) {
	f := func(rn, d1, d2, d3, d4 uint16) bool {
		g := NewLifetimeLedger()
		renamed := uint64(rn) + 1
		redefined := renamed + uint64(d1)%100 + 1
		consumed := renamed + uint64(d2)%100
		pre := redefined + uint64(d3)%100
		commit := pre + uint64(d4)%100 + 1
		g.Record(&RegLifetime{Renamed: renamed, Redefined: redefined,
			LastConsumed: consumed, Precommitted: pre, Committed: commit,
			Region: RegionAtomic, Consumers: 1})
		iu, un, vu := g.StateFractions()
		sum := iu + un + vu
		// Degenerate zero-length lifetimes yield 0,0,0.
		return (sum == 0 && g.InUse+g.Unused+g.VerifiedUnused == 0) ||
			math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: histogram count equals the number of Adds and percentile is
// monotonic in p.
func TestHistogramProperties(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(64)
		for _, v := range vals {
			h.Add(int(v))
		}
		if h.Count() != uint64(len(vals)) {
			return false
		}
		last := 0
		for _, p := range []float64{0.1, 0.5, 0.9, 1.0} {
			q := h.Percentile(p)
			if q < last {
				return false
			}
			last = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionKindString(t *testing.T) {
	want := map[RegionKind]string{
		RegionNone: "none", RegionNonBranch: "non-branch",
		RegionNonExcept: "non-except", RegionAtomic: "atomic",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestHistogramPercentileEdges(t *testing.T) {
	h := NewHistogram(4)
	if got := h.Percentile(0); got != 0 {
		t.Errorf("empty histogram p0 = %d, want 0", got)
	}
	if got := h.Percentile(1); got != 0 {
		t.Errorf("empty histogram p1 = %d, want 0", got)
	}
	h.Add(2)
	h.Add(3)
	// p=0 clamps to the first observation.
	if got := h.Percentile(0); got != 2 {
		t.Errorf("p0 = %d, want 2", got)
	}
	if got := h.Percentile(1); got != 3 {
		t.Errorf("p1 = %d, want 3", got)
	}

	// All observations in the overflow bucket report len(buckets).
	ov := NewHistogram(2)
	ov.Add(10)
	ov.Add(99)
	for _, p := range []float64{0, 0.5, 1} {
		if got := ov.Percentile(p); got != 3 {
			t.Errorf("all-overflow p%.1f = %d, want 3", p, got)
		}
	}
}

// TestHistogramMergeMatchesReplay checks bucket-wise Merge against the
// replay-based reference (one Add per observation) for same-shaped
// histograms, where the two must agree exactly.
func TestHistogramMergeMatchesReplay(t *testing.T) {
	a := NewHistogram(8)
	b := NewHistogram(8)
	ref := NewHistogram(8)
	for v := 0; v < 12; v++ { // values 9..11 overflow
		for n := 0; n <= v; n++ {
			b.Add(v)
			ref.Add(v)
		}
	}
	a.Add(1)
	ref.Add(1)
	a.Merge(b)
	if a.Count() != ref.Count() {
		t.Fatalf("count %d, want %d", a.Count(), ref.Count())
	}
	if a.Mean() != ref.Mean() {
		t.Errorf("mean %v, want %v", a.Mean(), ref.Mean())
	}
	for v := 0; v <= 9; v++ {
		if a.Bucket(v) != ref.Bucket(v) {
			t.Errorf("bucket %d: %d, want %d", v, a.Bucket(v), ref.Bucket(v))
		}
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if a.Percentile(p) != ref.Percentile(p) {
			t.Errorf("p%v: %d, want %d", p, a.Percentile(p), ref.Percentile(p))
		}
	}
}

// TestHistogramMergeDifferentMax merges a wider histogram into a narrower
// one: in-range values beyond the target's max must land in overflow, and
// the exact sum must be preserved (the old replay-based ledger merge
// re-bucketed these through Add with the wrong value).
func TestHistogramMergeDifferentMax(t *testing.T) {
	narrow := NewHistogram(2)
	wide := NewHistogram(16)
	wide.Add(1)
	wide.Add(5)  // in range for wide, overflow for narrow
	wide.Add(40) // overflow for both
	narrow.Merge(wide)
	if narrow.Count() != 3 {
		t.Fatalf("count %d, want 3", narrow.Count())
	}
	if got := narrow.Bucket(1); got != 1 {
		t.Errorf("bucket 1 = %d, want 1", got)
	}
	if got := narrow.Bucket(99); got != 2 { // overflow bucket
		t.Errorf("overflow = %d, want 2", got)
	}
	if want := float64(1+5+40) / 3; narrow.Mean() != want {
		t.Errorf("mean %v, want %v", narrow.Mean(), want)
	}
}

// TestLedgerMergeConsumerHist exercises the ledger merge path over the
// consumer histogram, including overflow observations.
func TestLedgerMergeConsumerHist(t *testing.T) {
	mk := func(consumers ...int) *LifetimeLedger {
		g := NewLifetimeLedger()
		for i, n := range consumers {
			g.Record(&RegLifetime{
				Renamed: 1, LastConsumed: 2, Redefined: 3,
				Precommitted: 4, Committed: uint64(5 + i),
				Consumers: n, Region: RegionAtomic,
			})
		}
		return g
	}
	a := mk(1, 2)
	b := mk(3, 99) // 99 overflows the 16-bucket consumer histogram
	ref := mk(1, 2, 3, 99)
	a.Merge(b)
	if a.ConsumerHist.Count() != ref.ConsumerHist.Count() {
		t.Fatalf("count %d, want %d", a.ConsumerHist.Count(), ref.ConsumerHist.Count())
	}
	if a.ConsumerHist.Mean() != ref.ConsumerHist.Mean() {
		t.Errorf("mean %v, want %v", a.ConsumerHist.Mean(), ref.ConsumerHist.Mean())
	}
	for v := 0; v <= 17; v++ {
		if a.ConsumerHist.Bucket(v) != ref.ConsumerHist.Bucket(v) {
			t.Errorf("bucket %d: %d, want %d", v, a.ConsumerHist.Bucket(v), ref.ConsumerHist.Bucket(v))
		}
	}
	if a.Completed() != 4 {
		t.Errorf("completed %d, want 4", a.Completed())
	}
}
