package experiments

import (
	"reflect"
	"testing"

	"atr/internal/config"
	"atr/internal/workload"
)

// TestPrefetchMatchesRun is the runner-level parallelism oracle: Prefetch
// must fill the memo cache with exactly the stats a solo Run computes on a
// fresh Runner — same Result, same ledger-derived figures, same power
// model — for every (profile, config) pair, and later Runs must be served
// from that memo without re-simulating.
func TestPrefetchMatchesRun(t *testing.T) {
	const instr = 2000
	profiles := workload.Profiles()[2:4]
	var cfgs []config.Config
	for _, regs := range []int{64, 224} {
		for _, s := range config.Schemes() {
			cfgs = append(cfgs, config.GoldenCove().WithPhysRegs(regs).WithScheme(s))
		}
	}
	if len(cfgs) != 8 {
		t.Fatalf("config axis has %d entries, want 8", len(cfgs))
	}

	r := NewRunner(instr)
	r.Workers = 3
	r.Prefetch(profiles, cfgs)
	want := len(profiles) * len(cfgs)
	if runs, _, _ := r.Totals(); runs != want {
		t.Fatalf("Prefetch executed %d unique runs, want %d", runs, want)
	}

	for _, p := range profiles {
		for i, cfg := range cfgs {
			solo := NewRunner(instr).Run(p, cfg)
			if got := r.Run(p, cfg); !reflect.DeepEqual(got, solo) {
				t.Errorf("%s cfg %d: prefetched stats diverge from solo Run\n got %+v\nwant %+v", p.Name, i, got, solo)
			}
		}
	}
	if runs, _, _ := r.Totals(); runs != want {
		t.Errorf("post-prefetch Runs re-simulated: %d unique runs, want %d", runs, want)
	}
	if hits, _, _ := r.CacheStats(); hits != uint64(want) {
		t.Errorf("post-prefetch memo hits = %d, want %d", hits, want)
	}
}
