package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/harness"
	"secmem/internal/obsv"
	"secmem/internal/sim"
	"secmem/internal/trace"
)

// clock reads host monotonic time in nanoseconds; each read is one runtime
// clock call.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// readCostNs is the host cost of one clock read, which every timed call
// below includes once.
func (c clock) readCostNs() float64 {
	const n = 200_000
	t := c.now()
	for i := 0; i < n; i++ {
		c.now()
	}
	return float64(c.now()-t) / n
}

// srcBatch is how many trace events timedSource generates per timed batch.
// The generator takes no feedback from the simulation, so generating ahead
// leaves the stream unchanged while keeping clock reads off the per-event
// path.
const srcBatch = 1024

// timedSource times the trace layer from outside: every Generator.Next call
// runs inside a timed batch.
type timedSource struct {
	src    cpu.Source
	clk    clock
	buf    []cpu.Event
	pos    int
	done   bool
	ns     int64
	events uint64
}

func (s *timedSource) Next() (cpu.Event, bool) {
	if s.pos == len(s.buf) && !s.refill() {
		return cpu.Event{}, false
	}
	ev := s.buf[s.pos]
	s.pos++
	return ev, true
}

func (s *timedSource) refill() bool {
	if s.done {
		return false
	}
	s.buf, s.pos = s.buf[:0], 0
	t := s.clk.now()
	for len(s.buf) < srcBatch {
		ev, ok := s.src.Next()
		if !ok {
			s.done = true
			break
		}
		s.buf = append(s.buf, ev)
	}
	s.ns += s.clk.now() - t
	s.events += uint64(len(s.buf))
	return len(s.buf) > 0
}

// accessClass is where a memory access was served, read off its result.
type accessClass int

const (
	l1Hit accessClass = iota
	l2Hit
	l2Miss
	numClasses
)

// timedMem times every MemSystem.Access call and classes it by its
// AccessResult: a result at L1 latency ran only the L1 probe, one at L1+L2
// latency the L2 probe, and an L2 miss the controller below it (counter
// store, Merkle verification, write-backs, functional crypto).
type timedMem struct {
	mem   *core.MemSystem
	clk   clock
	l1Lat sim.Time
	ns    [numClasses]int64
	calls [numClasses]uint64
}

func (m *timedMem) Access(now sim.Time, addr uint64, write bool) core.AccessResult {
	t := m.clk.now()
	r := m.mem.Access(now, addr, write)
	d := m.clk.now() - t
	cl := l2Hit
	switch {
	case r.L2Miss:
		cl = l2Miss
	case r.DataReady-now == m.l1Lat:
		cl = l1Hit
	}
	m.ns[cl] += d
	m.calls[cl]++
	return r
}

// split is the host-time breakdown of one or more traced simulations.
type split struct {
	wallNs, nextNs int64
	events, instr  uint64
	ns             [numClasses]int64
	calls          [numClasses]uint64
}

func (s *split) add(o split) {
	s.wallNs += o.wallNs
	s.nextNs += o.nextNs
	s.events += o.events
	s.instr += o.instr
	for i := range s.ns {
		s.ns[i] += o.ns[i]
		s.calls[i] += o.calls[i]
	}
}

func (s split) accessNs() int64 { return s.ns[l1Hit] + s.ns[l2Hit] + s.ns[l2Miss] }
func (s split) selfNs() int64   { return s.wallNs - s.nextNs - s.accessNs() }

// tracedSim runs one simulation with the trace and memory layers wrapped
// and reg attached, and returns the finished memory system with its
// statistics and host-time split.
func tracedSim(j simJob, seed int64, instr uint64, reg *obsv.Registry, clk clock) (*core.MemSystem, simStats, split, error) {
	mem, err := core.NewMemSystem(j.cfg)
	if err != nil {
		return nil, simStats{}, split{}, fmt.Errorf("build %s/%s: %w", j.bench, j.scheme, err)
	}
	mem.Instrument(reg, nil)
	src := &timedSource{src: trace.NewGenerator(trace.Get(j.bench), seed), clk: clk, buf: make([]cpu.Event, 0, srcBatch)}
	tm := &timedMem{mem: mem, clk: clk, l1Lat: j.cfg.L1.LatencyCycles}
	c := cpu.New(j.cfg, tm)
	runtime.GC()
	t := clk.now()
	res := c.Run(src, instr)
	sp := split{wallNs: clk.now() - t, nextNs: src.ns, events: src.events, instr: res.Instructions, ns: tm.ns, calls: tm.calls}
	return mem, snapshot(mem, res), sp, nil
}

// harnessRun runs one simulation through harness.Runner.Run, untraced, and
// returns its output and host seconds.
func harnessRun(r *harness.Runner, j simJob) (harness.RunOut, float64) {
	runtime.GC()
	t := time.Now()
	out := r.Run(j.bench, j.cfg)
	return out, time.Since(t).Seconds()
}

// iteration is one round of the traced run.
type iteration struct {
	// serialS and runMaxS time the workload's simulations one at a time
	// untraced: through harness.Runner.Run for the campaign, directly for a
	// single simulation.
	serialS, runMaxS float64
	// campaignS is the campaign's wall time on workers workers; a single
	// simulation is a campaign of one run on one worker.
	campaignS float64
	workers   int
	untraced  []float64 // per-job seconds of the direct untraced runs
	traced    split
}

func (it iteration) untracedS() float64 {
	var s float64
	for _, v := range it.untraced {
		s += v
	}
	return s
}

// perLayer is the traced run. Each iteration runs every job of the workload
// directly untraced and then traced, and the campaign workload also runs
// the campaign and its runs one at a time through the harness. Iterations
// repeat until the budget is spent; host times are medians over iterations
// and simulated counts come from the first. The functional twins and the
// crypto kernels are timed once after the iterations.
func perLayer(w workload, seed int64, budget time.Duration, c *checker) (map[string]metric, error) {
	clk := clock{base: time.Now()}
	jobs := w.jobs()
	var iters []iteration
	var ref []simStats     // first iteration's untraced statistics, per job
	var reg *obsv.Registry // first iteration's registry
	var refFig harness.FigData
	var target *machine // a functional machine to attack after the iterations
	if w.campaign == nil {
		// Warm-up: the first simulation in a process also pays for growing
		// the heap, which would bias whichever side of the traced/untraced
		// pair ran first.
		m, st, _, _, err := directRun(jobs[0], seed, w.instr)
		if err != nil {
			return nil, err
		}
		c.op(w.name+" warm-up", simProblems(jobs[0].cfg, w.mustReencrypt, m.mem, st, nil)...)
	}
	for p := (pacer{budget: budget, min: 1}); p.next(); {
		it := iteration{workers: 1, untraced: make([]float64, len(jobs))}
		var fig harness.FigData
		var outs []harness.RunOut
		if w.campaign != nil {
			opt := w.campaignOptions(seed)
			it.workers = opt.Parallelism
			r := harness.New(opt)
			runtime.GC()
			t := time.Now()
			_, fig = r.Fig9()
			it.campaignS = time.Since(t).Seconds()
			c.op(fmt.Sprintf("%s campaign %d", w.name, len(iters)), figProblems(r, fig, refFig)...)
			if refFig == nil {
				refFig = fig
			}
			r = harness.New(opt)
			for _, j := range jobs {
				out, s := harnessRun(r, j)
				outs = append(outs, out)
				it.serialS += s
				it.runMaxS = max(it.runMaxS, s)
			}
		}

		ireg := obsv.NewRegistry()
		baseIPC := map[string]float64{}
		for i, j := range jobs {
			m, st, s, _, err := directRun(j, seed, w.instr)
			if err != nil {
				return nil, err
			}
			it.untraced[i] = s.wall
			if j.cfg.Functional {
				target = m
			}
			var want *simStats
			if len(iters) > 0 {
				want = &ref[i]
			}
			c.op(fmt.Sprintf("%s untraced %s/%s", w.name, j.scheme, j.bench), simProblems(j.cfg, w.mustReencrypt, m.mem, st, want)...)

			tmem, tst, sp, err := tracedSim(j, seed, w.instr, ireg, clk)
			if err != nil {
				return nil, err
			}
			it.traced.add(sp)
			errs := simProblems(j.cfg, w.mustReencrypt, tmem, tst, &st)
			if outs != nil {
				errs = append(errs, sameAsRunOut(st, outs[i]))
			}
			if j.scheme == "base" {
				baseIPC[j.bench] = st.CPU.IPC()
			} else if fig != nil {
				if got, want := st.CPU.IPC()/baseIPC[j.bench], fig[j.scheme][j.bench]; got != want {
					errs = append(errs, fmt.Errorf("normalized IPC %v, campaign FigData %v", got, want))
				}
			}
			c.op(fmt.Sprintf("%s traced %s/%s", w.name, j.scheme, j.bench), errs...)
			if len(iters) == 0 {
				ref = append(ref, st)
			}
		}
		if w.campaign == nil {
			it.serialS = it.untracedS()
			it.runMaxS = it.serialS
			it.campaignS = it.serialS
		}
		if reg == nil {
			reg = ireg
		}
		iters = append(iters, it)
	}
	m := layerMetrics(iters, ref, reg)
	m["harness.runs"] = metric{float64(len(jobs)), "count"}

	// The functional twin of every Split+GCM job must simulate exactly the
	// same machine; the wall-time difference is the functional layer's cost.
	var funcS float64
	for i, j := range jobs {
		if j.cfg.Enc != config.EncCounterSplit || j.cfg.Auth != config.AuthGCM {
			continue
		}
		tj := twin(j)
		tm, st, s, _, err := directRun(tj, seed, w.instr)
		if err != nil {
			return nil, err
		}
		c.op(fmt.Sprintf("%s twin %s/%s", w.name, j.scheme, j.bench), simProblems(tj.cfg, w.mustReencrypt, tm.mem, st, &ref[i])...)
		own := make([]float64, len(iters))
		for k, it := range iters {
			own[k] = it.untraced[i]
		}
		if tj.cfg.Functional {
			funcS += s.wall - median(own)
			if target == nil {
				target = tm
			}
		} else {
			funcS += median(own) - s.wall
		}
	}
	m["core.functional_s"] = metric{funcS, "s"}
	if target != nil {
		attack(c, target, seed)
	}
	m["bench.clock_ns"] = metric{clk.readCostNs(), "ns"}
	for k, v := range kernelMetrics() {
		m[k] = v
	}
	return m, nil
}

// layerMetrics turns the iterations and the first iteration's simulated
// statistics and registry into the per-layer metrics.
func layerMetrics(iters []iteration, stats []simStats, reg *obsv.Registry) map[string]metric {
	per := func(f func(it iteration) float64) float64 {
		v := make([]float64, len(iters))
		for i, it := range iters {
			v[i] = f(it)
		}
		return median(v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	first := iters[0].traced
	m := map[string]metric{
		"trace.next_s":       {per(func(it iteration) float64 { return float64(it.traced.nextNs) / 1e9 }), "s"},
		"trace.events":       {float64(first.events), "count"},
		"trace.ns_per_event": {per(func(it iteration) float64 { return ratio(float64(it.traced.nextNs), float64(it.traced.events)) }), "ns"},
		"cpu.self_s":         {per(func(it iteration) float64 { return float64(it.traced.selfNs()) / 1e9 }), "s"},
		"cpu.ns_per_instr":   {per(func(it iteration) float64 { return ratio(float64(it.traced.selfNs()), float64(it.traced.instr)) }), "ns"},
		"cache.l1hit_ns": {per(func(it iteration) float64 {
			return ratio(float64(it.traced.ns[l1Hit]), float64(it.traced.calls[l1Hit]))
		}), "ns"},
		"cache.l1hit_calls": {float64(first.calls[l1Hit]), "count"},
		"core.l2hit_s":      {per(func(it iteration) float64 { return float64(it.traced.ns[l2Hit]) / 1e9 }), "s"},
		"core.l2hit_calls":  {float64(first.calls[l2Hit]), "count"},
		"core.l2miss_s":     {per(func(it iteration) float64 { return float64(it.traced.ns[l2Miss]) / 1e9 }), "s"},
		"core.l2miss_calls": {float64(first.calls[l2Miss]), "count"},
		"core.l2miss_ns": {per(func(it iteration) float64 {
			return ratio(float64(it.traced.ns[l2Miss]), float64(it.traced.calls[l2Miss]))
		}), "ns"},
		"harness.run_s_max":    {per(func(it iteration) float64 { return it.runMaxS }), "s"},
		"harness.serial_sum_s": {per(func(it iteration) float64 { return it.serialS }), "s"},
		"harness.parallel_eff": {per(func(it iteration) float64 {
			return ratio(it.serialS, it.campaignS*float64(it.workers))
		}), "ratio"},
		"bench.trace_overhead_frac": {per(func(it iteration) float64 { return ratio(float64(it.traced.wallNs)/1e9, it.untracedS()) - 1 }), "ratio"},
	}

	// Simulated statistics, pooled over the workload's simulations.
	var l1, l1Miss, l2, l2Miss, pads, timely, instr, cycles, bus, aes float64
	var reencs, onChip, fetched, stall float64
	for _, st := range stats {
		l1 += float64(st.L1.Accesses())
		l1Miss += float64(st.L1.Misses())
		l2 += float64(st.L2.Accesses())
		l2Miss += float64(st.L2.Misses())
		pads += float64(st.Ctl.PadReads)
		timely += float64(st.Ctl.TimelyPads)
		instr += float64(st.CPU.Instructions)
		cycles += float64(st.CPU.Cycles)
		bus += float64(st.BusBusy)
		aes += float64(st.AESIssues)
		reencs += float64(st.RSR.PageReencs)
		onChip += float64(st.RSR.BlocksOnChip)
		fetched += float64(st.RSR.BlocksFetched)
		stall += float64(st.RSR.StallCycles)
	}
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	var mFetch, mVerify float64
	for _, name := range reg.CounterNames() {
		switch {
		case strings.HasPrefix(name, "merkle.") && strings.HasSuffix(name, ".fetch"):
			mFetch += count(name)
		case strings.HasPrefix(name, "merkle.") && strings.HasSuffix(name, ".verify"):
			mVerify += count(name)
		}
	}
	hit, half, miss := count("ctrcache.hit"), count("ctrcache.halfmiss"), count("ctrcache.miss")
	for name, v := range map[string]metric{
		"cache.l1.hitrate":        {1 - ratio(l1Miss, l1), "ratio"},
		"cache.l2.hitrate":        {1 - ratio(l2Miss, l2), "ratio"},
		"ctl.fill":                {count("ctl.fill"), "count"},
		"ctl.writeback":           {count("ctl.writeback"), "count"},
		"ctl.tamper":              {count("ctl.tamper"), "count"},
		"ctl.timely_pad_rate":     {ratio(timely, pads), "ratio"},
		"counterstore.hit":        {hit, "count"},
		"counterstore.halfmiss":   {half, "count"},
		"counterstore.miss":       {miss, "count"},
		"counterstore.hitrate":    {ratio(hit, hit+half+miss), "ratio"},
		"counterstore.increments": {count("ctrcache.incr"), "count"},
		"counterstore.overflow":   {count("ctrcache.overflow"), "count"},
		"reenc.pagereenc":         {reencs, "count"},
		"reenc.stall_cycles":      {stall, "cycles"},
		"reenc.onchip_fraction":   {ratio(onChip, onChip+fetched), "ratio"},
		"merkle.fetch":            {mFetch, "count"},
		"merkle.verify":           {mVerify, "count"},
		"sim.cycles":              {cycles, "cycles"},
		"sim.ipc":                 {ratio(instr, cycles), "instr/cycle"},
		"bus.util":                {ratio(bus, cycles), "ratio"},
		"dram.read":               {count("dram.read"), "count"},
		"aes.issue":               {aes, "count"},
	} {
		m[name] = v
	}
	return m
}
