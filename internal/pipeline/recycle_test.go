package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"testing"

	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/program"
	"atr/internal/workload"
)

// Recycling a machine must be invisible: a CPU reset from any earlier run —
// another profile, scheme, register-file size, scheduler, a sampled window,
// an observed run, or a run abandoned by a panic — must reproduce a freshly
// built CPU's run byte for byte. These tests compare every output a run
// has against a fresh twin.

// runMode selects how one recycling step drives the machine.
type runMode int

const (
	modeExact    runMode = iota // plain Run
	modeObserved                // Run with a tracer and an interval sampler
	modeSampled                 // a sampled-simulation window: RestoreLive + overlay memory
	modePanic                   // a run the commit hook aborts mid-cycle (never compared)
)

// recycleStep is one run on the recycled machine.
type recycleStep struct {
	prog  *program.Program
	cfg   config.Config
	kind  SchedulerKind
	instr uint64
	mode  runMode
}

func (s recycleStep) String() string {
	return fmt.Sprintf("mode=%d kind=%d instr=%d regs=%d scheme=%v rob=%d", s.mode, s.kind, s.instr,
		s.cfg.PhysRegs, s.cfg.Scheme, s.cfg.ROBSize)
}

// runPrint is everything one run reports: the Result, the cumulative window
// counters, the power-model activity, both counter sets, the lifetime
// ledger, and (when observed) digests of the event trace and sample series.
type runPrint struct {
	Result   Result
	Window   WindowStats
	Activity string
	Counters string
	Ledger   string
	Trace    string
	Samples  string
}

// warmState is a sampled window's starting point: architectural state from
// the functional emulator and warm predictor/cache state from a machine
// that ran the same prefix.
type warmState struct {
	arch program.ArchState
	mem  *program.Memory
	warm *CPU
}

func newWarmState(st recycleStep) warmState {
	const prefix = 3000
	em := program.NewEmulator(st.prog)
	for i := 0; i < prefix && !em.Done; i++ {
		em.Step()
	}
	warm := NewWithScheduler(st.cfg, st.prog, st.kind)
	warm.Run(prefix)
	return warmState{
		arch: program.ArchState{PC: em.PC, Regs: em.Regs, MemSeed: em.Mem.Seed(), Steps: em.Steps(), Done: em.Done},
		mem:  em.Mem,
		warm: warm,
	}
}

// drive runs st on c, which the caller has just built or reset, and returns
// its print. recycled selects the in-place overlay (what checkpoint.Run
// does on a borrowed machine) over a newly allocated one.
func drive(c *CPU, st recycleStep, ws *warmState, recycled bool) runPrint {
	var (
		h   hash.Hash
		smp *obs.Sampler
	)
	switch st.mode {
	case modeObserved:
		h = sha256.New()
		smp = obs.NewSampler(97)
		c.Observe(&obs.Observer{Tracer: obs.NewTracer(h, nil), Sampler: smp})
	case modeSampled:
		c.RestoreLive(&ws.arch, ws.warm.Pred, ws.warm.Mem)
		if recycled {
			c.Data.ResetOverlay(ws.mem)
		} else {
			c.Data = program.NewOverlay(ws.mem)
		}
	case modePanic:
		n := uint64(0)
		c.OnCommit = func(program.Record) {
			if n++; n == st.instr/2 {
				panic("injected mid-run fault")
			}
		}
	}
	res := c.Run(st.instr)
	if err := c.Engine.CheckInvariants(); err != nil {
		panic(err)
	}
	led := *c.Engine.Ledger
	hist := *led.ConsumerHist
	led.ConsumerHist = nil
	p := runPrint{
		Result:   res,
		Window:   c.WindowStats(),
		Activity: fmt.Sprintf("%+v", c.Activity()),
		Counters: c.Stats.String() + "|" + c.Engine.Stats.String(),
		Ledger:   fmt.Sprintf("%+v|%+v", led, hist),
	}
	if h != nil {
		p.Trace = hex.EncodeToString(h.Sum(nil))
		p.Samples = fmt.Sprintf("%+v", smp.Samples())
	}
	return p
}

// runPanicking runs a modePanic step and reports whether it panicked.
func runPanicking(c *CPU, st recycleStep) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	drive(c, st, nil, true)
	return false
}

// checkRecycled runs steps in order on one recycled machine and compares
// every non-panic step against a freshly built twin.
func checkRecycled(t *testing.T, steps []recycleStep) {
	t.Helper()
	c := new(CPU)
	for i, st := range steps {
		var ws warmState
		if st.mode == modeSampled {
			ws = newWarmState(st)
		}
		c.Reset(st.cfg, st.prog, st.kind)
		if st.mode == modePanic {
			if !runPanicking(c, st) {
				t.Fatalf("step %d (%v): injected panic did not fire", i, st)
			}
			continue
		}
		got := drive(c, st, &ws, true)
		want := drive(NewWithScheduler(st.cfg, st.prog, st.kind), st, &ws, false)
		if got != want {
			t.Fatalf("step %d (%v): recycled machine diverged from a fresh one\n recycled: %+v\n fresh:    %+v",
				i, st, got, want)
		}
	}
}

// TestRecycledMachineMatchesFresh runs every profile × scheme × {64, 224}
// registers × scheduler in shuffled order on one recycled machine, so
// consecutive runs switch scheduler kind, register-file size, scheme, and
// program; a third are traced and sampled, a sixth are sampled windows,
// and aborted runs are injected between them.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EC1C1E))
	var steps []recycleStep
	for _, p := range workload.Profiles() {
		prog := p.Generate()
		for _, scheme := range config.Schemes() {
			for _, regs := range []int{64, 224} {
				for _, kind := range []SchedulerKind{SchedulerEvent, SchedulerScan} {
					st := recycleStep{
						prog:  prog,
						cfg:   config.GoldenCove().WithScheme(scheme).WithPhysRegs(regs),
						kind:  kind,
						instr: 1500,
					}
					switch r := rng.Intn(6); {
					case r < 2:
						st.mode = modeObserved
					case r < 3:
						st.mode = modeSampled
						st.instr = 1000
					}
					steps = append(steps, st)
				}
			}
		}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	// Inject an aborted run before every 12th step: the machine is reset
	// from whatever mid-cycle state the panic left behind.
	var seq []recycleStep
	for i, st := range steps {
		if i%12 == 5 {
			abort := st
			abort.mode = modePanic
			seq = append(seq, abort)
		}
		seq = append(seq, st)
	}
	if testing.Short() {
		seq = seq[:len(seq)/4]
	}
	checkRecycled(t, seq)
}

// TestRecycledMachineEdgeConfigs covers reset across geometry the Fig 10
// grid never varies — ROB, decode queue, caches, predictor tables, RAS
// depth, MSHRs, prefetcher — and the fault, interrupt, and recovery
// options whose state (the faulted-PC map, interrupt latches, checkpoint
// budget) a previous run leaves behind.
func TestRecycledMachineEdgeConfigs(t *testing.T) {
	p, _ := workload.ByName("mcf")
	prog := p.Generate()
	base := config.GoldenCove().WithScheme(config.SchemeCombined)
	var steps []recycleStep
	for i, mut := range edgeMutators() {
		cfg := mut(base)
		// Each edge config runs twice in a row (state one run of it leaves
		// behind is only read by another), then the base config.
		steps = append(steps,
			recycleStep{prog: prog, cfg: cfg, kind: SchedulerKind(i % 2), instr: 2000},
			recycleStep{prog: prog, cfg: cfg, kind: SchedulerKind((i + 1) % 2), instr: 2000, mode: modeObserved},
			recycleStep{prog: prog, cfg: base, kind: SchedulerKind(i % 2), instr: 1500})
	}
	checkRecycled(t, steps)
}

// edgeMutators are config changes a recycled machine must absorb.
func edgeMutators() []func(config.Config) config.Config {
	return []func(config.Config) config.Config{
		func(c config.Config) config.Config { c.ROBSize, c.DecodeQueue = 64, 8; return c },
		func(c config.Config) config.Config { c.ROBSize, c.DecodeQueue = 1024, 96; return c },
		func(c config.Config) config.Config {
			c.L1D.SizeBytes, c.L1D.Ways = 8<<10, 2
			c.LLC.SizeBytes, c.LLC.Ways = 6<<20, 16
			return c
		},
		func(c config.Config) config.Config { c.StreamPrefetch, c.MSHRs = false, 4; return c },
		func(c config.Config) config.Config { c.RASEntries, c.TageTables, c.BTBEntries = 4, 3, 256; return c },
		func(c config.Config) config.Config { c.TageTableBits, c.IBTBEntries = 12, 8192; return c },
		func(c config.Config) config.Config { c.FaultRate = 7; return c },
		func(c config.Config) config.Config {
			c.InterruptInterval, c.InterruptCost, c.InterruptMode = 300, 20, config.InterruptFlush
			return c
		},
		func(c config.Config) config.Config {
			c.InterruptInterval, c.InterruptCost, c.InterruptMode = 500, 10, config.InterruptDrain
			return c
		},
		func(c config.Config) config.Config { c.WalkRecovery = true; return c },
		func(c config.Config) config.Config { c.CheckpointBudget, c.MoveElimination = 4, true; return c },
		func(c config.Config) config.Config { c.PhysRegs, c.RedefineDelay = 0, 3; return c },
	}
}

// FuzzRecycledMachine drives one machine through an arbitrary sequence of
// runs decoded from the input — profile, scheme, register-file size,
// scheduler, mode, budget, and one geometry or option change per step —
// comparing each against a fresh machine.
func FuzzRecycledMachine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 5, 3, 1, 0, 1})
	f.Add([]byte{7, 3, 1, 1, 0, 2, 12, 2, 1, 4, 22, 1, 0, 0, 3, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add([]byte{20, 1, 1, 1, 2, 9, 20, 1, 1, 3, 3, 7, 20, 1, 0, 0, 0, 11})
	profiles := workload.Profiles()
	progs := make([]*program.Program, len(profiles))
	var mu sync.Mutex
	progFor := func(i int) *program.Program {
		mu.Lock()
		defer mu.Unlock()
		if progs[i] == nil {
			progs[i] = profiles[i].Generate()
		}
		return progs[i]
	}
	mutators := edgeMutators()
	schemes := config.Schemes()
	f.Fuzz(func(t *testing.T, data []byte) {
		const stepBytes = 6
		var steps []recycleStep
		for len(data) >= stepBytes && len(steps) < 6 {
			b := data[:stepBytes]
			data = data[stepBytes:]
			cfg := config.GoldenCove().WithScheme(schemes[int(b[1])%len(schemes)])
			cfg.PhysRegs = 40 + int(b[2])%200
			if m := int(b[5]) % (len(mutators) + 1); m < len(mutators) {
				cfg = mutators[m](cfg)
			}
			st := recycleStep{
				prog:  progFor(int(b[0]) % len(profiles)),
				cfg:   cfg,
				kind:  SchedulerKind(b[3] % 2),
				mode:  runMode(b[3] / 2 % 4),
				instr: 200 + uint64(b[4])*8,
			}
			steps = append(steps, st)
		}
		checkRecycled(t, steps)
	})
}

// TestRunConcurrent exercises the machine pool from concurrent goroutines
// (run it with -race): every pooled Run must equal a fresh machine's run of
// the same unit, however machines migrate between goroutines.
func TestRunConcurrent(t *testing.T) {
	var units []recycleStep
	for _, name := range []string{"gcc", "mcf", "lbm"} {
		p, _ := workload.ByName(name)
		prog := p.Generate()
		for _, regs := range []int{64, 224} {
			for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
				units = append(units, recycleStep{
					prog:  prog,
					cfg:   config.GoldenCove().WithScheme(scheme).WithPhysRegs(regs),
					kind:  SchedulerEvent,
					instr: 800,
				})
			}
		}
	}
	want := make([]Result, len(units))
	for i, u := range units {
		want[i] = NewWithScheduler(u.cfg, u.prog, u.kind).Run(u.instr)
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*len(units))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range units {
					i := (k + g*5 + r) % len(units)
					u := units[i]
					if got := Run(u.cfg, u.prog, u.kind, u.instr); got != want[i] {
						errs <- fmt.Sprintf("goroutine %d unit %d: pooled %+v != fresh %+v", g, i, got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
