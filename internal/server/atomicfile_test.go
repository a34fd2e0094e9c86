package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"atr/internal/sweep"
)

// TestWriteFileAtomic checks the replace-by-rename contract: the final
// file holds exactly the last write, is world-readable like the
// os.WriteFile it replaced, and no temp file survives a successful write.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "status.json")
	for _, body := range []string{"first\n", "second, longer\n"} {
		if err := WriteFileAtomic(path, []byte(body)); err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("read back %q (err %v), want %q", got, err, body)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v (err %v), want 0644", fi.Mode().Perm(), err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestRecoverIgnoresLeftoverTmp simulates a daemon killed between writing
// a temp file and renaming it. A torn spec.json.*.tmp or status.json.*.tmp
// beside a complete spec.json must not block that job's recovery, and a
// job dir holding only a torn temp spec — a submission killed before it
// was acknowledged — must not be taken for a job.
func TestRecoverIgnoresLeftoverTmp(t *testing.T) {
	opts := testOptions(t)
	const instr = 300
	spec := JobSpec{Kind: "grid", Grid: "micro", Instr: instr}
	b, err := json.Marshal(persistedJob{ID: "j000007", SubmittedAt: "2026-01-01T00:00:00Z", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"j000007/spec.json":             b,
		"j000007/spec.json.111.tmp":     b[:len(b)/2],
		"j000007/status.json.222.tmp":   []byte(`{"state":"fa`),
		"j000008/spec.json.333.tmp":     b[:10],
		"j000008/manifest.json.444.tmp": []byte(`{"schema"`),
	}
	for name, data := range files {
		path := filepath.Join(opts.StateDir, "jobs", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, hs := newTestServer(t, opts)
	if got := s.Metrics().JobsRecovered; got != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", got)
	}
	if _, ok := s.Job("j000008"); ok {
		t.Fatal("a job dir holding only temp files was recovered as a job")
	}
	waitJob(t, s, "j000007", StateDone)
	if got, want := fetchManifest(t, hs.URL, "j000007"), offlineManifest(t, sweep.MicroGrid(instr)); !bytes.Equal(got, want) {
		t.Fatal("recovered job's manifest differs from offline")
	}
}
