package main

import (
	"encoding/json"

	"atr/internal/config"
	"atr/internal/server"
	"atr/internal/workload"
)

// rng is splitmix64: a tiny generator whose sequence is fixed by this
// file alone, so a seed names the same inputs on every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns k distinct elements of xs in their original order.
func pick[T any](r *rng, xs []T, k int) []T {
	idx := make([]bool, len(xs))
	for n := 0; n < k; {
		if i := r.intn(len(xs)); !idx[i] {
			idx[i] = true
			n++
		}
	}
	var out []T
	for i, x := range xs {
		if idx[i] {
			out = append(out, x)
		}
	}
	return out
}

const (
	jobInstr    = 10_000 // instructions of a served job's one unit
	repeatEvery = 4      // about one job in repeatEvery re-requests an earlier spec
)

// jobRegs are the register-file sizes timed jobs draw from; warm-up jobs
// draw from warmRegs, which share no value with them, so no warm-up unit
// key is ever requested in the timed phase. 23 profiles × 224 sizes × 4
// schemes leave room for the 20k fresh units a long run can draw.
var (
	jobRegs  = regRange(64, 510, 2)
	warmRegs = regRange(65, 511, 2)
)

func regRange(lo, hi, step int) []int {
	var rs []int
	for r := lo; r <= hi; r += step {
		rs = append(rs, r)
	}
	return rs
}

// jobStream is the seeded, unbounded sequence of small custom-grid jobs
// the two served workloads submit. Job i is a pure function of (seed, i).
// About a quarter of jobs repeat the spec of a job at least two places
// earlier — with two closed-loop clients every such job has finished, so
// its run keys are in the result cache. Every other job declares units
// whose keys no earlier job used.
type jobStream struct {
	r     rng
	regs  []int
	specs []server.JobSpec
	fresh []bool
	used  map[string]bool
}

func newJobStream(seed uint64, regs []int) *jobStream {
	return &jobStream{r: rng{s: seed}, regs: regs, used: map[string]bool{}}
}

// job returns spec i and whether it is the first request of its units.
// Not safe for concurrent use.
func (s *jobStream) job(i int) (server.JobSpec, bool) {
	for len(s.specs) <= i {
		n := len(s.specs)
		if n >= 2 && s.r.intn(repeatEvery) == 0 {
			s.specs = append(s.specs, s.specs[s.r.intn(n-1)])
			s.fresh = append(s.fresh, false)
			continue
		}
		s.specs = append(s.specs, s.freshSpec())
		s.fresh = append(s.fresh, true)
	}
	return s.specs[i], s.fresh[i]
}

// freshSpec draws a one-unit grid whose key was never drawn before.
func (s *jobStream) freshSpec() server.JobSpec {
	profiles := workload.Profiles()
	schemes := config.Schemes()
	for {
		spec := server.JobSpec{
			Kind: "grid", Name: "bench", Instr: jobInstr,
			Profiles: []string{profiles[s.r.intn(len(profiles))].Name},
			PhysRegs: []int{s.regs[s.r.intn(len(s.regs))]},
			Schemes:  []string{schemes[s.r.intn(len(schemes))].String()},
		}
		g, err := spec.ResolveGrid(jobInstr)
		if err != nil {
			panic(err) // profile and scheme names come from the packages themselves
		}
		units := g.Units()
		clash := false
		for _, u := range units {
			clash = clash || s.used[u.Key]
		}
		if clash {
			continue
		}
		for _, u := range units {
			s.used[u.Key] = true
		}
		return spec
	}
}

// specKey identifies a spec for reference lookups.
func specKey(spec server.JobSpec) string {
	b, _ := json.Marshal(spec) // a JobSpec always marshals
	return string(b)
}

// warmJobs is the warm-up stream: for each set-up, one job per client,
// each an 8-unit grid (2 profiles × 2 register-file sizes × 2 schemes)
// with sizes from warmRegs that no other warm-up job uses. Submitted
// together, the two jobs keep both simulation workers busy from the first
// dispatch to the end, so a set-up never waits out a worker's poll sleep
// halfway through, which made cluster set-ups jump by one poll interval
// at random when the warm-up was a stream of one-unit jobs.
func warmJobs(seed uint64) *jobStream {
	r := rng{s: seed ^ 0x5eed}
	s := newJobStream(seed, nil)
	for i := 0; 2*i+1 < len(warmRegs); i++ {
		spec := server.JobSpec{
			Kind: "grid", Name: "warmup", Instr: jobInstr,
			PhysRegs: warmRegs[2*i : 2*i+2],
		}
		for _, p := range pick(&r, workload.Profiles(), 2) {
			spec.Profiles = append(spec.Profiles, p.Name)
		}
		for _, sc := range pick(&r, config.Schemes(), 2) {
			spec.Schemes = append(spec.Schemes, sc.String())
		}
		s.specs = append(s.specs, spec)
		s.fresh = append(s.fresh, true)
	}
	return s
}
