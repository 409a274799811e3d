package main

import (
	"fmt"
	"runtime"

	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/counterstore"
	"secmem/internal/cpu"
	"secmem/internal/harness"
	"secmem/internal/reenc"
	"secmem/internal/sim"
	"secmem/internal/trace"
)

// workload is one benchmark input: either a single simulation of one
// (bench, config) pair, or a reduced Figure 9 campaign through the harness.
type workload struct {
	name  string
	bench string              // single-simulation workloads
	cfg   config.SystemConfig // single-simulation workloads
	// campaign lists the benches of a Figure 9 campaign; nil for a
	// single-simulation workload.
	campaign []string
	// instr is the instruction budget of one simulation (per run in the
	// campaign).
	instr uint64
	// mustReencrypt guards that the workload reaches RSR page
	// re-encryption; without it the workload no longer measures that path.
	mustReencrypt bool
}

// Workloads in the order BENCHMARK.json lists them. No workload sets
// Options.Shards or Config.HashWorkers: the sharded core simulates a
// different machine and parallel hashing is slower than serial (NOTES.md).
var workloads = []workload{
	{name: "stream-timing", bench: "swim", cfg: config.Default(), instr: 2_000_000},
	{name: "chase-functional", bench: "mcf", cfg: functional(config.Default()), instr: 250_000},
	{name: "writeback-reenc", bench: "twolf", cfg: functional(stressed()), instr: 500_000, mustReencrypt: true},
	{name: "fig9-campaign", campaign: []string{"swim", "mcf", "crafty"}, instr: 250_000},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func functional(cfg config.SystemConfig) config.SystemConfig {
	cfg.Functional = true
	return cfg
}

// twin is j with the functional crypto layer toggled: the timing-only twin
// of a functional simulation, or the functional twin of a timing-only one.
// Both must simulate exactly the same machine.
func twin(j simJob) simJob {
	j.cfg.Functional = !j.cfg.Functional
	return j
}

// stressed is the ablations' RSR stress machine: a 128 KB L2 that thrashes
// the hot write set, and 4-bit minor counters that overflow within a
// tractable run, so write-backs reach page re-encryption.
func stressed() config.SystemConfig {
	cfg := config.Default()
	cfg.L2.SizeBytes = 128 << 10
	cfg.MinorBits = 4
	return cfg
}

// campaignOptions are the harness options of the campaign workload. The
// campaign runs whole simulations concurrently on every host CPU.
func (w workload) campaignOptions(seed int64) harness.Options {
	return harness.Options{
		Instructions: w.instr,
		Seed:         seed,
		Benches:      w.campaign,
		Parallelism:  runtime.NumCPU(),
	}
}

// simJob is one simulation of a campaign: a bench under a named scheme
// ("base" is the unprotected machine IPCs are normalized against).
type simJob struct {
	scheme string
	bench  string
	cfg    config.SystemConfig
}

// jobs lists every simulation the workload runs: the one (bench, config)
// pair, or all of Figure 9's schemes plus the baselines over the campaign's
// benches, baselines first.
func (w workload) jobs() []simJob {
	if w.campaign == nil {
		return []simJob{{scheme: w.cfg.SchemeName(), bench: w.bench, cfg: w.cfg}}
	}
	var js []simJob
	for _, b := range w.campaign {
		js = append(js, simJob{scheme: "base", bench: b, cfg: config.Baseline()})
	}
	for _, s := range harness.CombinedNames() {
		for _, b := range w.campaign {
			js = append(js, simJob{scheme: s, bench: b, cfg: harness.Combined(s)})
		}
	}
	return js
}

// machine is one simulated machine ready to run: the memory hierarchy with
// its secure controller, the trace generator and the core.
type machine struct {
	cfg config.SystemConfig
	mem *core.MemSystem
	gen *trace.Generator
	cpu *cpu.CPU
	end sim.Time // final cycle once run
}

// newMachine builds a machine the way harness.Runner.Run does; caches start
// empty.
func newMachine(bench string, cfg config.SystemConfig, seed int64) (*machine, error) {
	mem, err := core.NewMemSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("build %s/%s: %w", bench, cfg.SchemeName(), err)
	}
	gen := trace.NewGenerator(trace.Get(bench), seed)
	return &machine{cfg: cfg, mem: mem, gen: gen, cpu: cpu.New(cfg, mem)}, nil
}

// simStats is every simulated statistic a speed-only change must leave
// identical. All fields are comparable, so two runs compare with ==.
type simStats struct {
	CPU       cpu.Result
	Ctl       core.Stats
	Ctr       counterstore.Stats
	RSR       reenc.Stats
	L1, L2    cache.Stats
	BusBusy   uint64
	AESIssues uint64
}

func snapshot(mem *core.MemSystem, res cpu.Result) simStats {
	ctl := mem.Controller()
	st := simStats{
		CPU:       res,
		Ctl:       ctl.Stats,
		L1:        mem.L1().Stats,
		L2:        mem.L2().Stats,
		BusBusy:   uint64(ctl.Bus().BusyCycles()),
		AESIssues: ctl.AES().Issues(),
	}
	if ctrs := ctl.Counters(); ctrs != nil {
		st.Ctr = ctrs.Stats
	}
	if rsrs := ctl.RSRs(); rsrs != nil {
		st.RSR = rsrs.Stats
	}
	return st
}

// sameAsRunOut reports where a harness RunOut disagrees with the statistics
// of the same simulation run directly.
func sameAsRunOut(st simStats, out harness.RunOut) error {
	switch {
	case out.CPU != st.CPU:
		return fmt.Errorf("cpu result %+v, direct run %+v", out.CPU, st.CPU)
	case out.Ctl != st.Ctl:
		return fmt.Errorf("controller stats %+v, direct run %+v", out.Ctl, st.Ctl)
	case out.CtrHits != st.Ctr.Hits || out.CtrHalfMisses != st.Ctr.HalfMisses ||
		out.CtrMisses != st.Ctr.Misses || out.CtrIncrements != st.Ctr.Increments:
		return fmt.Errorf("counter stats differ from the direct run")
	case out.RSR != st.RSR:
		return fmt.Errorf("RSR stats %+v, direct run %+v", out.RSR, st.RSR)
	}
	return nil
}
