// Package bpred implements the frontend's prediction structures: a
// TAGE-style conditional branch predictor, a branch target buffer, an
// ITTAGE-lite indirect target predictor, and a return address stack. The
// paper's Table 1 configures "TAGE-SC-L + BPU enhancements"; this package
// implements the TAGE core with a bimodal base table and geometric history
// lengths, which is the component that determines misprediction behaviour at
// simulation fidelity.
package bpred

import (
	"math"

	"atr/internal/arena"
)

// historyBits is the size of the folded global history register.
const historyBits = 64

// GlobalHistory is a shift register of recent conditional branch outcomes.
type GlobalHistory struct {
	bits uint64
}

// Update shifts one outcome into the history.
func (h *GlobalHistory) Update(taken bool) {
	h.bits <<= 1
	if taken {
		h.bits |= 1
	}
}

// Snapshot returns a copy for checkpoint/restore on speculative updates.
func (h *GlobalHistory) Snapshot() GlobalHistory { return *h }

// Restore rewinds the history to a snapshot (misprediction recovery).
func (h *GlobalHistory) Restore(s GlobalHistory) { *h = s }

// fold compresses the low histLen bits of the history into width bits.
func (h *GlobalHistory) fold(histLen, width int) uint64 {
	if histLen > historyBits {
		histLen = historyBits
	}
	var masked uint64
	if histLen == 64 {
		masked = h.bits
	} else {
		masked = h.bits & (1<<uint(histLen) - 1)
	}
	var folded uint64
	for masked != 0 {
		folded ^= masked & (1<<uint(width) - 1)
		masked >>= uint(width)
	}
	return folded
}

// tageEntry is one tagged-table entry.
type tageEntry struct {
	tag    uint16
	ctr    int8  // signed counter: >=0 predicts taken
	useful uint8 // usefulness for replacement
}

// TAGE is a tagged geometric-history-length conditional branch predictor
// with a bimodal base table.
type TAGE struct {
	base     []int8 // bimodal base predictor (2-bit counters)
	baseBits int
	tables   [][]tageEntry
	tblBits  int
	histLens []int
	hist     GlobalHistory
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	BaseBits  int // log2 bimodal entries
	TableBits int // log2 entries per tagged table
	NumTables int
	MaxHist   int // longest history length; lengths follow a geometric series
}

// NewTAGE builds a predictor from cfg, applying sane defaults for zero
// fields.
func NewTAGE(cfg TAGEConfig) *TAGE {
	t := new(TAGE)
	t.reset(cfg)
	return t
}

// reset reinitializes t for cfg, exactly as NewTAGE(cfg) would build it,
// reusing its tables' storage.
func (t *TAGE) reset(cfg TAGEConfig) {
	if cfg.BaseBits == 0 {
		cfg.BaseBits = 12
	}
	if cfg.TableBits == 0 {
		cfg.TableBits = 10
	}
	if cfg.NumTables == 0 {
		cfg.NumTables = 6
	}
	if cfg.MaxHist == 0 {
		cfg.MaxHist = 256
	}
	t.base = arena.Resize(t.base, 1<<cfg.BaseBits)
	t.baseBits = cfg.BaseBits
	t.tblBits = cfg.TableBits
	t.hist = GlobalHistory{}
	t.histLens = t.histLens[:0]
	t.tables = arena.Extend(t.tables, cfg.NumTables)
	// Geometric history lengths from 4 up to MaxHist.
	minHist := 4.0
	ratio := 1.0
	if cfg.NumTables > 1 {
		ratio = math.Pow(float64(cfg.MaxHist)/minHist, 1.0/float64(cfg.NumTables-1))
	}
	l := minHist
	for i := 0; i < cfg.NumTables; i++ {
		t.histLens = append(t.histLens, int(l+0.5))
		t.tables[i] = arena.Resize(t.tables[i], 1<<cfg.TableBits)
		l *= ratio
	}
}

func (t *TAGE) baseIndex(pc uint64) uint64 {
	return (pc ^ pc>>t.baseBits) & (1<<uint(t.baseBits) - 1)
}

func (t *TAGE) tableIndex(pc uint64, tbl int) uint64 {
	h := t.hist.fold(t.histLens[tbl], t.tblBits)
	return (pc ^ pc>>uint(t.tblBits) ^ h ^ uint64(tbl)*0x9e37) & (1<<uint(t.tblBits) - 1)
}

func (t *TAGE) tableTag(pc uint64, tbl int) uint16 {
	h := t.hist.fold(t.histLens[tbl], 12)
	return uint16((pc>>2 ^ h ^ uint64(tbl)<<7) & 0xFFF)
}

// Prediction carries the provider metadata needed for the update.
type Prediction struct {
	Taken bool
	// Confident is set when the providing counter is well away from the
	// decision boundary; low-confidence branches are the ones worth an
	// SRT checkpoint (§4.2.1 checkpoints low-confidence branches only).
	Confident bool
	provider  int // -1 = base table
	altTaken  bool
	idx       uint64
	tag       uint16
	baseIdx   uint64
}

// Predict returns the direction prediction for the conditional branch at pc.
func (t *TAGE) Predict(pc uint64) Prediction {
	p := Prediction{provider: -1}
	p.baseIdx = t.baseIndex(pc)
	baseCtr := t.base[p.baseIdx]
	basePred := baseCtr >= 0
	p.Taken, p.altTaken = basePred, basePred
	p.Confident = baseCtr >= 1 || baseCtr <= -2
	for i := len(t.tables) - 1; i >= 0; i-- {
		idx := t.tableIndex(pc, i)
		e := &t.tables[i][idx]
		if e.tag != t.tableTag(pc, i) {
			continue
		}
		if p.provider == -1 {
			// Longest matching table provides the prediction.
			p.provider = i
			p.idx = idx
			p.tag = e.tag
			p.Taken = e.ctr >= 0
			p.Confident = e.ctr >= 1 || e.ctr <= -2
			p.altTaken = basePred
		} else {
			// Next-longest match supplies the alternate prediction.
			p.altTaken = e.ctr >= 0
			break
		}
	}
	return p
}

// Update trains the predictor with the actual outcome of the branch at pc,
// using the metadata captured at prediction time, and shifts the outcome
// into the global history.
func (t *TAGE) Update(pc uint64, pred Prediction, taken bool) {
	// Train the provider (or base).
	if pred.provider >= 0 {
		e := &t.tables[pred.provider][pred.idx]
		if e.tag == pred.tag {
			e.ctr = saturate(e.ctr, taken, 3)
			if pred.Taken != pred.altTaken {
				if pred.Taken == taken && e.useful < 3 {
					e.useful++
				} else if pred.Taken != taken && e.useful > 0 {
					e.useful--
				}
			}
		}
	} else {
		t.base[pred.baseIdx] = saturate(t.base[pred.baseIdx], taken, 1)
	}
	// On a misprediction, allocate in a longer-history table.
	if pred.Taken != taken {
		start := pred.provider + 1
		allocated := false
		for i := start; i < len(t.tables); i++ {
			idx := t.tableIndex(pc, i)
			e := &t.tables[i][idx]
			if e.useful == 0 {
				e.tag = t.tableTag(pc, i)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Age usefulness to guarantee eventual allocation.
			for i := start; i < len(t.tables); i++ {
				idx := t.tableIndex(pc, i)
				if e := &t.tables[i][idx]; e.useful > 0 {
					e.useful--
				}
			}
		}
	}
	t.hist.Update(taken)
}

// History exposes the global history for checkpointing.
func (t *TAGE) History() *GlobalHistory { return &t.hist }

// saturate moves a signed counter toward taken/not-taken within [-lim-1, lim].
func saturate(c int8, taken bool, lim int8) int8 {
	if taken {
		if c < lim {
			return c + 1
		}
		return c
	}
	if c > -lim-1 {
		return c - 1
	}
	return c
}
