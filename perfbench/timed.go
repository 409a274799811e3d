package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"secmem/internal/cpu"
	"secmem/internal/harness"
)

// minReps is the fewest timed repetitions a run makes, however short
// --seconds is; minSetups the fewest set-ups it times.
const (
	minReps   = 3
	minSetups = 50
)

// pacer paces a repetition loop within a time budget.
type pacer struct {
	budget      time.Duration
	min, n      int
	start, prev time.Time
}

// next reports whether to start another repetition: always for the first
// min, then only while one more as long as the last still fits the budget.
func (p *pacer) next() bool {
	now := time.Now()
	if p.n == 0 {
		p.start = now
	}
	last := now.Sub(p.prev)
	p.prev = now
	if p.n < p.min || now.Sub(p.start)+last <= p.budget {
		p.n++
		return true
	}
	return false
}

// sample is one timed repetition: host seconds, simulated instructions and
// host bytes allocated inside the timed region.
type sample struct {
	wall   float64
	instr  uint64
	allocB uint64
}

func (s sample) minstrPerS() float64 { return float64(s.instr) / 1e6 / s.wall }
func (s sample) mbPerMinstr() float64 {
	return float64(s.allocB) / 1e6 / (float64(s.instr) / 1e6)
}

// timeRegion runs fn, collecting the heap first, and measures its host time
// and allocation. The collection and the memory statistics stay outside.
func timeRegion(fn func() uint64) sample {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	instr := fn()
	wall := time.Since(t).Seconds()
	runtime.ReadMemStats(&after)
	return sample{wall: wall, instr: instr, allocB: after.TotalAlloc - before.TotalAlloc}
}

// directRun builds a machine for j on a collected heap, timing the set-up,
// and runs it untraced in a timed region.
func directRun(j simJob, seed int64, instr uint64) (*machine, simStats, sample, float64, error) {
	runtime.GC()
	t := time.Now()
	m, err := newMachine(j.bench, j.cfg, seed)
	setup := time.Since(t).Seconds()
	if err != nil {
		return nil, simStats{}, sample{}, 0, err
	}
	var res cpu.Result
	s := timeRegion(func() uint64 {
		res = m.cpu.Run(m.gen, instr)
		return res.Instructions
	})
	m.end = res.Cycles
	return m, snapshot(m.mem, res), s, setup, nil
}

// liveHeapMB is the heap occupied by live objects, in MB, as marked by a
// forced collection. Unlike HeapAlloc it leaves out the free space of spans
// the allocator caches, which varies from run to run.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// endToEnd is the untraced run: it repeats the workload's simulation(s)
// until the budget is spent and reports medians over the repetitions.
// Every repetition's outputs are checked after its timed region.
func endToEnd(w workload, seed int64, budget time.Duration, c *checker) (map[string]metric, error) {
	if w.campaign != nil {
		return campaignEndToEnd(w, seed, budget, c)
	}
	j := w.jobs()[0]
	var samples []sample
	var setups []float64
	var ref *simStats
	var last *machine
	for p := (pacer{budget: budget, min: minReps}); p.next(); {
		m, st, s, setup, err := directRun(j, seed, w.instr)
		if err != nil {
			return nil, err
		}
		c.op(fmt.Sprintf("%s rep %d", w.name, len(samples)), simProblems(j.cfg, w.mustReencrypt, m.mem, st, ref)...)
		if ref == nil {
			ref = &st
		}
		samples = append(samples, s)
		setups = append(setups, setup)
		last = m
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last)
	for len(setups) < minSetups {
		runtime.GC()
		t := time.Now()
		if _, err := newMachine(w.bench, w.cfg, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	if w.cfg.Functional {
		// The timing-only twin must simulate exactly the same machine.
		tj := twin(j)
		tm, st, _, _, err := directRun(tj, seed, w.instr)
		if err != nil {
			return nil, err
		}
		c.op(w.name+" timing-only twin", simProblems(tj.cfg, w.mustReencrypt, tm.mem, st, ref)...)
		attack(c, last, seed)
	}
	return e2eMetrics(samples, setups, heap), nil
}

// campaignEndToEnd repeats the reduced Figure 9 campaign. Each campaign's
// FigData must equal the first one's.
func campaignEndToEnd(w workload, seed int64, budget time.Duration, c *checker) (map[string]metric, error) {
	opt := w.campaignOptions(seed)
	perCampaign := uint64(len(w.jobs())) * w.instr
	var samples []sample
	var setups []float64
	var ref harness.FigData
	var last *harness.Runner
	for p := (pacer{budget: budget, min: minReps}); p.next(); {
		r := harness.New(opt)
		var data harness.FigData
		s := timeRegion(func() uint64 {
			_, data = r.Fig9()
			return perCampaign
		})
		c.op(fmt.Sprintf("%s rep %d", w.name, len(samples)), figProblems(r, data, ref)...)
		if ref == nil {
			ref = data
		}
		samples = append(samples, s)
		last = r
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last)
	// A campaign's first simulated instruction waits for the runner and for
	// the first run's machine, which Runner.Run builds as newMachine does.
	// harness.New alone takes well under a microsecond.
	first := w.jobs()[0]
	for len(setups) < minSetups {
		runtime.GC()
		t := time.Now()
		harness.New(opt)
		if _, err := newMachine(first.bench, first.cfg, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return e2eMetrics(samples, setups, heap), nil
}

// figProblems checks one campaign's figure: no table error, a positive
// normalized IPC for every scheme and bench, and the reference's exact
// values when there is a reference.
func figProblems(r *harness.Runner, data, ref harness.FigData) []error {
	var errs []error
	if err := r.Err(); err != nil {
		errs = append(errs, err)
	}
	for _, scheme := range sortedKeys(data) {
		for _, bench := range sortedKeys(data[scheme]) {
			if v := data[scheme][bench]; !(v > 0) {
				errs = append(errs, fmt.Errorf("%s/%s normalized IPC %v", scheme, bench, v))
			}
		}
	}
	if ref != nil && !reflect.DeepEqual(data, ref) {
		errs = append(errs, fmt.Errorf("FigData differs from the first campaign at the same seed"))
	}
	return errs
}

func e2eMetrics(samples []sample, setups []float64, heap float64) map[string]metric {
	thr := make([]float64, len(samples))
	alloc := make([]float64, len(samples))
	for i, s := range samples {
		thr[i] = s.minstrPerS()
		alloc[i] = s.mbPerMinstr()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d repetitions, Minstr/s each: %.3f\n", len(thr), thr)
	return map[string]metric{
		"sim_minstr_per_s":    {median(thr), "Minstr/s"},
		"setup_s":             {median(setups), "s"},
		"live_heap_mb":        {heap, "MB"},
		"alloc_mb_per_minstr": {median(alloc), "MB/Minstr"},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
