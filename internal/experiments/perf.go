package experiments

import (
	"context"
	"time"

	"atr/internal/pipeline"
	"atr/internal/sweep"
)

// Throughput summarizes the wall-clock performance of a serial simulation
// sweep: how fast the simulator itself runs, as opposed to what it models.
type Throughput struct {
	Runs   int     // simulations executed
	Instr  uint64  // instructions committed, summed over runs
	Cycles uint64  // cycles simulated, summed over runs
	Wall   float64 // wall-clock seconds for the whole sweep
}

// CyclesPerSec returns simulated cycles per wall-clock second.
func (t Throughput) CyclesPerSec() float64 {
	if t.Wall == 0 {
		return 0
	}
	return float64(t.Cycles) / t.Wall
}

// InstrPerSec returns committed instructions per wall-clock second.
func (t Throughput) InstrPerSec() float64 {
	if t.Wall == 0 {
		return 0
	}
	return float64(t.Instr) / t.Wall
}

// SchedulerSweep executes the Figure 10 sweep grid — every benchmark profile
// at both RF sizes under every release scheme, on the ROB-512 Golden Cove
// configuration — through the sweep engine pinned to one worker with the
// given scheduler implementation, and returns the aggregate simulator
// throughput. Serial execution keeps the comparison between scheduler
// implementations free of parallel-scheduling noise; instr is the per-run
// instruction budget.
func SchedulerSweep(kind pipeline.SchedulerKind, instr uint64) Throughput {
	g := sweep.Fig10Grid(instr)
	eng := sweep.New(sweep.Options{Workers: 1})
	start := time.Now()
	m, err := eng.Execute(context.Background(), g, sweep.SimScheduler(kind, g.Instr))
	if err != nil {
		return Throughput{}
	}
	return Throughput{
		Runs:   m.Totals.Done + m.Totals.Failed,
		Instr:  m.Totals.Committed,
		Cycles: m.Totals.Cycles,
		Wall:   time.Since(start).Seconds(),
	}
}
