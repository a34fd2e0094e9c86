// Package pipeline models the out-of-order superscalar core of Table 1: a
// decoupled predicted-path frontend, rename/dispatch, an age-ordered
// scheduler over diversified functional units, a load/store queue with
// store-to-load forwarding, a reorder buffer with a precommit pointer, and
// commit. It executes real data values, fetches down mispredicted paths, and
// recovers via SRT checkpoints or backward walks, driving the release
// engine in internal/core through its event protocol.
package pipeline

import (
	"atr/internal/bpred"
	"atr/internal/core"
	"atr/internal/isa"
	"atr/internal/program"
)

// uop is one in-flight dynamic micro-operation.
type uop struct {
	seq  uint64 // fetch order, never reused
	pc   uint64
	inst *isa.Inst

	// Frontend.
	fetchedAt  uint64
	renameable uint64 // earliest rename cycle (frontend depth)
	pred       bpred.BranchPrediction
	hasPred    bool
	predNext   uint64 // predicted next PC used by fetch

	// Rename.
	ren      core.RenameOut
	renamed  bool
	renCycle uint64
	cp       *core.Checkpoint // SRT snapshot (mispredictable control only)

	// Scheduling and execution.
	issued   bool
	issueAt  uint64
	doneAt   uint64 // completion cycle once issued
	executed bool   // completion applied (results broadcast)
	out      program.Outcome

	// Memory. Stores split address generation from data: the address
	// issues as soon as its base register is ready (STA), while the data
	// is captured whenever its producer completes (STD). Loads only wait
	// for older stores' addresses, plus the data of a forwarding match.
	ea        uint64
	eaKnown   bool
	stData    uint64
	stDataRdy bool

	// Control resolution.
	actualNext uint64
	mispredict bool

	// Exceptions.
	fault bool

	precommitted bool
	preAt        uint64 // cycle the precommit pointer passed this uop
	squashed     bool

	// Event scheduling (sched.go; all zero in scan mode, which heap-
	// allocates uops and never recycles them). idx is the uop's slot in
	// the scheduler's slab arena, fixed until the next Reset; gen is
	// bumped each time the slot recycles through the free list,
	// invalidating any schedRef still held by a wait list, ready heap,
	// wheel slot, or stall list.
	idx        int32
	gen        uint32
	waitCnt    int8       // not-yet-ready register sources gating issue
	stSrcRdy   bool       // store: the STD source register is ready
	fwdNext    int32      // store-forwarding hash chain (slab index, -1 ends)
	stallIssue []schedRef // loads waiting for this store's address issue
	stallData  []schedRef // loads waiting for this store's data capture
}

func (u *uop) isLoad() bool  { return u.inst.Op == isa.OpLoad }
func (u *uop) isStore() bool { return u.inst.Op == isa.OpStore }

// mispredictable reports whether this op needs an SRT checkpoint.
func (u *uop) mispredictable() bool {
	return u.inst.Op.IsCondBranch() || u.inst.Op.IsIndirect()
}

// rob is a ring buffer of in-flight uops in fetch order. Indices wrap by
// conditional subtraction (head and offsets are always < 2×capacity), not
// modulo — the commit and precommit walks index it several times per cycle
// and an integer divide per access shows up in profiles.
type rob struct {
	buf  []*uop
	head int
	n    int
}

func (r *rob) len() int   { return r.n }
func (r *rob) cap() int   { return len(r.buf) }
func (r *rob) full() bool { return r.n == len(r.buf) }

func (r *rob) wrap(i int) int {
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

func (r *rob) push(u *uop) {
	if r.full() {
		panic("pipeline: ROB overflow")
	}
	r.buf[r.wrap(r.head+r.n)] = u
	r.n++
}

// at returns the i-th oldest entry (0 = head).
func (r *rob) at(i int) *uop { return r.buf[r.wrap(r.head+i)] }

func (r *rob) popHead() *uop {
	if r.n == 0 {
		panic("pipeline: ROB underflow")
	}
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = r.wrap(r.head + 1)
	r.n--
	return u
}

// popTail removes and returns the youngest entry.
func (r *rob) popTail() *uop {
	if r.n == 0 {
		panic("pipeline: ROB underflow")
	}
	i := r.wrap(r.head + r.n - 1)
	u := r.buf[i]
	r.buf[i] = nil
	r.n--
	return u
}
