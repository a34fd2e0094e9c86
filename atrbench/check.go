package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"atr/internal/sweep"
)

// Result manifests carry no wall-clock field (scheduling telemetry lives in
// SweepInfo and perf.json), so the output check compares whole manifests.

// manifestFailures counts the units of got that do not match the
// reference want: a failed record, or any difference in a record. A
// difference outside the records (grid header, totals) fails every unit.
func manifestFailures(got, want *sweep.Manifest) int {
	if len(got.Runs) != len(want.Runs) {
		return len(want.Runs)
	}
	bad := 0
	for i := range got.Runs {
		if got.Runs[i].Err != "" || !sameJSON(got.Runs[i], want.Runs[i]) {
			bad++
		}
	}
	if bad == 0 && !sameJSON(got, want) {
		return len(want.Runs)
	}
	return bad
}

// manifestBytesFailures decodes a manifest as served over HTTP and checks
// it; a manifest that does not decode fails every unit.
func manifestBytesFailures(got []byte, want *sweep.Manifest) int {
	m, err := sweep.DecodeManifest(bytes.NewReader(got))
	if err != nil {
		return len(want.Runs)
	}
	if bad := manifestFailures(m, want); bad > 0 {
		return bad
	}
	var enc bytes.Buffer
	if err := want.Encode(&enc); err != nil || !bytes.Equal(enc.Bytes(), got) {
		return len(want.Runs)
	}
	return 0
}

// logDigest prints the SHA-256 of the reference manifests a run checked
// against, so runs of one seed — traced or not — can be shown to have
// checked identical bytes.
func logDigest(w io.Writer, workload string, seed uint64, refs []*sweep.Manifest) {
	h := sha256.New()
	for _, m := range refs {
		if err := m.Encode(h); err != nil {
			return
		}
	}
	fmt.Fprintf(w, "%s seed %d: reference manifests sha256 %x\n", workload, seed, h.Sum(nil))
}

func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// jobResult is one submitted job as the client saw it.
type jobResult struct {
	idx      int
	id       string
	code     int    // HTTP status of the submission
	state    string // terminal job state from the event stream
	manifest []byte
	err      error // transport or protocol failure
	mismatch bool  // manifest differs from the offline reference

	t0, submitted, running, finished, fetched time.Time
}

// failed reports whether the job counts as a failure: a transport error,
// a non-2xx reply (429 included), a terminal state other than done, or a
// manifest that differs from the offline reference.
func (j *jobResult) failed() bool {
	return j.err != nil || j.code < 200 || j.code > 299 || j.state != "done" || j.mismatch
}
