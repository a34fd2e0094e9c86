package main

import (
	"time"

	"atr/internal/bpred"
	"atr/internal/cache"
	"atr/internal/config"
	"atr/internal/core"
	"atr/internal/isa"
	"atr/internal/pipeline"
	"atr/internal/program"
)

// kernelLayers times the simulator's hot kernels through their public
// entry points, each over a fixed operation count, and reports ns per op.
func kernelLayers(o *outcome) {
	o.Metrics["core.rename_ns_op"] = renameNs(200_000)
	o.Metrics["bpred.tage_predict_ns_op"] = tageNs(1_000_000)
	o.Metrics["cache.access_ns_op"] = cacheNs(1_000_000)
	o.Metrics["pipeline.sched_ilp_ns_op"] = schedNs(ilpKernel(), 200_000)
	o.Metrics["pipeline.sched_chain_ns_op"] = schedNs(chainKernel(), 100_000)
	o.Metrics["pipeline.sched_stores_ns_op"] = schedNs(storeKernel(), 100_000)
}

func nsPer(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// renameNs is one op: rename an ALU instruction under ATR, then drive its
// registers through issue, completion, precommit and commit of a redefiner.
func renameNs(ops int) float64 {
	e := core.NewEngine(config.GoldenCove().WithScheme(config.SchemeATR).WithPhysRegs(128))
	br := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
	e.Rename(&br, 0)
	in := isa.NewInst(isa.OpALU, []isa.Reg{isa.R1}, []isa.Reg{isa.R2, isa.R1})
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		out := e.Rename(&in, uint64(i))
		for j := 0; j < out.NumSrcs; j++ {
			e.ConsumerIssued(out.Srcs[j], uint64(i))
		}
		e.ProducerCompleted(out.Dsts[0].New, uint64(i))
		e.RedefinerPrecommitted(out.Dsts[0], uint64(i))
		e.RedefinerCommitted(out.Dsts[0], uint64(i))
	}
	return nsPer(time.Since(t0), ops)
}

// tageNs is one op: predict and update one of 512 branches.
func tageNs(ops int) float64 {
	t := bpred.NewTAGE(bpred.TAGEConfig{})
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		pc := uint64(i % 512)
		p := t.Predict(pc)
		t.Update(pc, p, i%3 != 0)
	}
	return nsPer(time.Since(t0), ops)
}

// cacheNs is one op: a data access over a 6.4 MB footprint, one in four a
// write, each issued when the previous one completes. Issuing misses
// faster than the MSHRs drain (as the root package's
// BenchmarkCacheHierarchy does) piles up in-flight entries and makes the
// per-access cost grow with the run length, which the pipeline's bounded
// load queue never does.
func cacheNs(ops int) float64 {
	h := cache.NewHierarchy(config.GoldenCove())
	var now uint64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		now = h.AccessData(uint64(i%100_000)*64, i%4 == 0, now)
	}
	return nsPer(time.Since(t0), ops)
}

// schedNs is one op: one simulated cycle of the kernel on the event
// scheduler, measured on a warm CPU.
func schedNs(prog *program.Program, instr uint64) float64 {
	cpu := pipeline.NewWithScheduler(config.GoldenCove(), prog, pipeline.SchedulerEvent)
	c0 := cpu.Run(instr / 10).Cycles
	t0 := time.Now()
	c1 := cpu.Run(instr).Cycles
	return nsPer(time.Since(t0), int(c1-c0))
}

// ilpKernel: independent ALU ops, so issue runs at full width.
func ilpKernel() *program.Program {
	b := program.NewBuilder(11, 12)
	b.Label("top")
	regs := []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5, isa.R6,
		isa.R7, isa.R8, isa.R9, isa.R10, isa.R11, isa.R12}
	for i, r := range regs {
		b.ALU(r, isa.R0, isa.RegInvalid, int64(i+1))
	}
	b.Jump("top")
	return b.MustBuild()
}

// chainKernel: a serial dependence chain, so the wakeup path dominates.
func chainKernel() *program.Program {
	b := program.NewBuilder(21, 22)
	b.Label("top")
	for i := 0; i < 12; i++ {
		b.ALU(isa.R1, isa.R1, isa.RegInvalid, 1)
	}
	b.Jump("top")
	return b.MustBuild()
}

// storeKernel: stores then loads of the same addresses, keeping the store
// queue full and forwarding on every iteration.
func storeKernel() *program.Program {
	b := program.NewBuilder(31, 32)
	b.Label("top")
	for i := 0; i < 6; i++ {
		b.ALU(isa.R1, isa.R1, isa.RegInvalid, 1)
		b.Store(isa.R0, isa.R1, 0x1000, 1<<16, int64(i)*8)
		b.Load(isa.Reg(int(isa.R2)+i), isa.R0, 0x1000, 1<<16, int64(i)*8)
	}
	b.Jump("top")
	return b.MustBuild()
}
