package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"atr/internal/server"
	"atr/internal/sweep"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name may appear in BENCHMARK.json: it
// starts with a letter or digit and uses at most 64 of [A-Za-z0-9_.-].
func validMetricName(name string) bool { return metricName.MatchString(name) }

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 1000; n++ {
		p, ok := tailPercentile(n, 10)
		if n < 20 {
			if ok {
				t.Fatalf("n=%d: got p%d, want no tail (fewer than 10 samples beyond the median)", n, p)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if beyond := n - rank; beyond < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it, want >= 10", n, p, beyond)
		}
		if p < 99 {
			next := int(math.Ceil(float64(p+1) / 100 * float64(n)))
			if n-next >= 10 && n*(100-p-1) >= 1000 {
				t.Fatalf("n=%d: p%d is not the highest percentile with 10 beyond", n, p)
			}
		}
	}
}

func TestTailMetricName(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{100, "job_p90_ms"},
		{5000, "job_p90_ms"},
		{99, "job_p89_ms"},
		{50, "job_p80_ms"},
		{20, "job_p50_ms"},
	} {
		if got, _, _ := tailMetricName(tc.n); got != tc.want {
			t.Errorf("tailMetricName(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
	if _, _, ok := tailMetricName(19); ok {
		t.Error("tailMetricName(19) reported a tail")
	}
	o := &outcome{Metrics: map[string]float64{}}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if err := o.jobTail(lat); err != nil {
		t.Fatal(err)
	}
	if o.Metrics["job_p50_ms"] != 50 || o.Metrics["job_p90_ms"] != 90 {
		t.Errorf("jobTail over 1..100 = p50 %v p90 %v, want 50 and 90", o.Metrics["job_p50_ms"], o.Metrics["job_p90_ms"])
	}
}

func TestMetricNamesValidAndMatchBenchmarkJSON(t *testing.T) {
	for _, bad := range []string{"", "_lead", ".lead", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, listed []struct{ Name, Unit string }) {
		if len(specs) != len(listed) {
			t.Fatalf("%s: harness reports %d metrics, BENCHMARK.json lists %d", kind, len(specs), len(listed))
		}
		seen := map[string]bool{}
		for i, s := range specs {
			if !validMetricName(s.Name) || seen[s.Name] {
				t.Errorf("%s: invalid or duplicate name %q", kind, s.Name)
			}
			seen[s.Name] = true
			if listed[i].Name != s.Name || listed[i].Unit != s.Unit {
				t.Errorf("%s[%d]: harness %s/%s, BENCHMARK.json %s/%s", kind, i, s.Name, s.Unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, cfg.EndToEnd)
	check("per_layer", perLayer, cfg.PerLayer)
	for _, s := range perLayer {
		if s.Moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", s.Name)
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
	}
}

func TestJobStreamIsSeeded(t *testing.T) {
	const n = 400
	a, b, c := newJobStream(7, jobRegs), newJobStream(7, jobRegs), newJobStream(8, jobRegs)
	differ := false
	repeats := 0
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		sa, freshA := a.job(i)
		sb, freshB := b.job(i)
		sc, _ := c.job(i)
		if specKey(sa) != specKey(sb) || freshA != freshB {
			t.Fatalf("job %d differs between two streams of seed 7", i)
		}
		differ = differ || specKey(sa) != specKey(sc)
		keys := unitKeys(sa)
		if len(keys) == 0 || len(keys) > 4 {
			t.Fatalf("job %d declares %d units, want 1-4", i, len(keys))
		}
		if !freshA {
			repeats++
			found := false
			for j := 0; j <= i-2; j++ {
				if s, _ := a.job(j); specKey(s) == specKey(sa) {
					found = true
				}
			}
			if !found {
				t.Fatalf("repeat job %d does not repeat a job at least two places earlier", i)
			}
			continue
		}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("fresh job %d reuses run key %s", i, k)
			}
			seen[k] = true
		}
	}
	if !differ {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	if share := float64(repeats) / n; share < 0.15 || share > 0.35 {
		t.Errorf("repeat share %.2f, want about a quarter", share)
	}
	warm := warmJobs(7)
	warmSeen := map[string]bool{}
	for i := 0; i < setupRepeats*clients; i++ {
		s, _ := warm.job(i)
		keys := unitKeys(s)
		if len(keys) != 8 {
			t.Fatalf("warm-up job %d declares %d units, want 8", i, len(keys))
		}
		for _, k := range keys {
			if seen[k] || warmSeen[k] {
				t.Fatalf("warm-up job %d reuses run key %s", i, k)
			}
			warmSeen[k] = true
		}
	}
}

func TestWarmupGridsShareNoKeys(t *testing.T) {
	for _, w := range []offlineWorkload{fig10Workload(3), sampledWorkload(3)} {
		timed := map[string]bool{}
		for _, u := range w.timed.Units() {
			timed[u.Key] = true
		}
		for _, u := range w.warm.Units() {
			if timed[u.Key] {
				t.Errorf("%s: warm-up unit %s is a timed unit", w.timed.Name, u.Key)
			}
		}
	}
	a, b := sampledWorkload(5), sampledWorkload(5)
	if !sameJSON(a.timed.Units(), b.timed.Units()) {
		t.Error("sampledWorkload(5) is not deterministic")
	}
}

func TestFailureCounting(t *testing.T) {
	ok := func() jobResult { return jobResult{code: http.StatusOK, state: "done"} }
	cases := map[string]func(*jobResult){
		"transport error": func(j *jobResult) { j.err = errors.New("connection refused") },
		"429":             func(j *jobResult) { j.code = http.StatusTooManyRequests },
		"500":             func(j *jobResult) { j.code = http.StatusInternalServerError },
		"failed job":      func(j *jobResult) { j.state = "failed" },
		"no terminal":     func(j *jobResult) { j.state = "" },
		"mismatch":        func(j *jobResult) { j.mismatch = true },
	}
	good := ok()
	if good.failed() {
		t.Fatal("a done job with a 200 and a matching manifest counts as failed")
	}
	for name, spoil := range cases {
		j := ok()
		spoil(&j)
		if !j.failed() {
			t.Errorf("%s: not counted as a failure", name)
		}
	}
}

func TestOutputCheckRejectsTamperedRecord(t *testing.T) {
	g := sweep.MicroGrid(400)
	ref, _, err := reference(g, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.New(sweep.Options{Workers: 2}).Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad := manifestFailures(got, ref); bad != 0 {
		t.Fatalf("engine manifest differs from the direct-call reference in %d units", bad)
	}
	var enc bytes.Buffer
	if err := got.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if bad := manifestBytesFailures(enc.Bytes(), ref); bad != 0 {
		t.Fatalf("encoded manifest fails the check in %d units", bad)
	}

	tampered := *got
	tampered.Runs = append([]sweep.Record(nil), got.Runs...)
	tampered.Runs[3].Result.Cycles++
	if bad := manifestFailures(&tampered, ref); bad != 1 {
		t.Errorf("one tampered record: %d failures, want 1", bad)
	}
	tampered.Runs[3] = got.Runs[3]
	tampered.Runs[5].Err = "panic: injected"
	if bad := manifestFailures(&tampered, ref); bad != 1 {
		t.Errorf("one failed record: %d failures, want 1", bad)
	}
	tampered.Runs[5] = got.Runs[5]
	tampered.Totals.Cycles++
	if bad := manifestFailures(&tampered, ref); bad != len(ref.Runs) {
		t.Errorf("tampered totals: %d failures, want every unit (%d)", bad, len(ref.Runs))
	}
	raw := bytes.Replace(enc.Bytes(), []byte(`"attempts": 1`), []byte(`"attempts": 2`), 1)
	if bad := manifestBytesFailures(raw, ref); bad == 0 {
		t.Error("tampered manifest bytes passed the check")
	}
	if bad := manifestBytesFailures([]byte("{"), ref); bad != len(ref.Runs) {
		t.Errorf("undecodable manifest: %d failures, want %d", bad, len(ref.Runs))
	}
}

func TestClosedLoopAgainstServedPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	svc, err := startService(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(svc.url)
	stream := newJobStream(1, jobRegs)
	jobs := closedLoop(c, stream, 0, phaseBudget{}, 6)
	c.http.CloseIdleConnections()
	if err := svc.stop(); err != nil {
		t.Fatal(err)
	}
	var specs []server.JobSpec
	for i := 0; i < 6; i++ {
		s, _ := stream.job(i)
		specs = append(specs, s)
	}
	refs := references(specs)
	for _, j := range jobs {
		ref := refs[specKey(specs[j.idx])]
		if j.failed() || ref.err != nil || manifestBytesFailures(j.manifest, ref.m) != 0 {
			t.Errorf("job %d: state %q code %d err %v ref %v", j.idx, j.state, j.code, j.err, ref.err)
		}
		if !j.t0.Before(j.submitted) || j.running.Before(j.submitted) || j.finished.Before(j.running) || j.fetched.Before(j.finished) {
			t.Errorf("job %d: timestamps out of order", j.idx)
		}
	}
}

// unitKeys lists the run keys a spec declares.
func unitKeys(spec server.JobSpec) []string {
	g, err := spec.ResolveGrid(jobInstr)
	if err != nil {
		return nil
	}
	var keys []string
	for _, u := range g.Units() {
		keys = append(keys, u.Key)
	}
	return keys
}
