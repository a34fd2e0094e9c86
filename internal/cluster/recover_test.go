package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"atr/internal/server"
	"atr/internal/sweep"
)

// TestCoordinatorRecoverIgnoresLeftoverTmp is the cluster plane's
// counterpart of the daemon's leftover-temp-file recovery test: torn
// *.tmp files beside a complete spec.json neither block recovery nor
// surface as a job of their own.
func TestCoordinatorRecoverIgnoresLeftoverTmp(t *testing.T) {
	opts := testOptions(t)
	const instr = 300
	spec := server.JobSpec{Kind: "grid", Grid: "micro", Instr: instr}
	b, err := json.Marshal(persistedJob{ID: "c000003", SubmittedAt: "2026-01-01T00:00:00Z", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"c000003/spec.json":             b,
		"c000003/spec.json.111.tmp":     b[:len(b)/2],
		"c000003/status.json.222.tmp":   []byte(`{"state":"fa`),
		"c000004/spec.json.333.tmp":     b[:10],
		"c000004/manifest.json.444.tmp": []byte(`{"schema"`),
	}
	for name, data := range files {
		path := filepath.Join(opts.StateDir, "cluster-jobs", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c, hs := newTestCoordinator(t, opts)
	if got := c.cm.jobsRecovered.Value(); got != 1 {
		t.Fatalf("jobs recovered = %d, want 1", got)
	}
	c.mu.Lock()
	_, stray := c.jobs["c000004"]
	c.mu.Unlock()
	if stray {
		t.Fatal("a job dir holding only temp files was recovered as a job")
	}
	startWorker(t, hs.URL, "w1")
	waitState(t, hs.URL, "c000003", server.StateDone, 60*time.Second)
	if got, want := fetchManifest(t, hs.URL, "c000003"), offlineManifest(t, sweep.MicroGrid(instr), 0); !bytes.Equal(got, want) {
		t.Fatal("recovered job's manifest differs from single-node run")
	}
}
