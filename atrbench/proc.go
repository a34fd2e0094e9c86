package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSample is the process-wide counters a timed phase is charged with.
type procSample struct {
	at  time.Time
	cpu time.Duration // user + system
	gc  uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:  time.Now(),
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:  ms.NumGC,
	}
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// osThreads is the process's current OS thread count, 0 if unknown.
func osThreads() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "Threads:"); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(v))
			return float64(n)
		}
	}
	return 0
}

// span is one timed call the harness made into a layer. Spans of one job
// or pass share a Trace id; Parent names the enclosing span.
type span struct {
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"` // since the tracer started
	Dur    float64 `json:"dur_ms"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced mode runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(trace, name, parent string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Trace: trace, Name: name, Parent: parent,
		Start: ms(start.Sub(t.t0)), Dur: ms(d),
	})
	t.mu.Unlock()
}

// durs returns the durations (ms) of every span with the given name.
func (t *tracer) durs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// write saves every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssSampler reads the resident set every 10 ms while a timed phase runs
// and keeps each second's peak. The median of those peaks is the peak a
// steady workload holds; the process-lifetime high-water mark is one
// extreme of GC timing and moved by a quarter between runs of one seed.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MiB, one per completed second
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak float64
		window := time.Now()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				peak = max(peak, residentMB())
				if now.Sub(window) >= time.Second {
					s.peaks = append(s.peaks, peak)
					peak, window = 0, now
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median per-second peak in MiB,
// or the process high-water mark when no second completed.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 || s.peaks[0] == 0 {
		return peakRSSMB()
	}
	return median(s.peaks)
}

// residentMB is the current resident set in MiB, 0 if unknown.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
