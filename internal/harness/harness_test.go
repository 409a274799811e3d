package harness

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"secmem/internal/config"
	"secmem/internal/stats"
)

// quickRunner keeps unit-test turnaround fast; the shape assertions below
// hold at this scale and above (the full campaign uses cmd/paperbench).
func quickRunner(benches ...string) *Runner {
	opt := Options{Instructions: 400_000, Seed: 1}
	if len(benches) > 0 {
		opt.Benches = benches
	}
	return New(opt)
}

func TestBaselineCaching(t *testing.T) {
	r := quickRunner("swim")
	a := r.Baseline("swim")
	b := r.Baseline("swim")
	if a != b || a <= 0 {
		t.Fatalf("baseline caching broken: %v vs %v", a, b)
	}
}

func TestRunDeterministic(t *testing.T) {
	r := quickRunner()
	cfg := EncOnly(config.EncCounterSplit, 64)
	x := r.Run("art", cfg)
	y := r.Run("art", cfg)
	if x.IPC != y.IPC || x.CPU.Cycles != y.CPU.Cycles {
		t.Fatalf("nondeterministic run: %+v vs %+v", x.CPU, y.CPU)
	}
}

func TestNormIPCBounds(t *testing.T) {
	r := quickRunner("swim", "crafty")
	for _, b := range []string{"swim", "crafty"} {
		v := r.NormIPC(b, EncOnly(config.EncCounterSplit, 64))
		if v <= 0 || v > 1.05 {
			t.Errorf("%s split normalized IPC = %.3f, out of (0, 1.05]", b, v)
		}
	}
}

func TestMemoryBoundSufferMoreFromDirect(t *testing.T) {
	r := quickRunner("swim", "crafty")
	direct := EncOnly(config.EncDirect, 64)
	swim := r.NormIPC("swim", direct)
	crafty := r.NormIPC("crafty", direct)
	if swim >= crafty {
		t.Errorf("direct: swim %.3f not worse than crafty %.3f", swim, crafty)
	}
}

func TestSplitBeatsDirect(t *testing.T) {
	r := quickRunner("swim", "art", "applu")
	for _, b := range []string{"swim", "art", "applu"} {
		split := r.NormIPC(b, EncOnly(config.EncCounterSplit, 64))
		direct := r.NormIPC(b, EncOnly(config.EncDirect, 64))
		if split <= direct {
			t.Errorf("%s: split %.3f not better than direct %.3f", b, split, direct)
		}
	}
}

func TestSplitBeatsMono64(t *testing.T) {
	r := quickRunner("swim", "art")
	for _, b := range []string{"swim", "art"} {
		split := r.NormIPC(b, EncOnly(config.EncCounterSplit, 64))
		mono := r.NormIPC(b, EncOnly(config.EncCounterMono, 64))
		if split <= mono {
			t.Errorf("%s: split %.3f not better than mono64 %.3f", b, split, mono)
		}
	}
}

func TestMcfIsTheCounterCacheOutlier(t *testing.T) {
	// The paper singles out mcf: its enormous pointer-chased working set
	// defeats the counter cache.
	r := quickRunner("mcf", "swim")
	mcf := r.Run("mcf", EncOnly(config.EncCounterSplit, 64))
	swim := r.Run("swim", EncOnly(config.EncCounterSplit, 64))
	if mcf.CtrHitRate() >= swim.CtrHitRate() {
		t.Errorf("mcf counter hit rate %.2f not below swim's %.2f",
			mcf.CtrHitRate(), swim.CtrHitRate())
	}
}

func TestCombinedConstructors(t *testing.T) {
	for _, name := range CombinedNames() {
		cfg := Combined(name)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if cfg.SchemeName() == "base" {
			t.Errorf("%s: scheme name empty", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown combined scheme did not panic")
		}
	}()
	Combined("Triple+ROT13")
}

func TestAuthOnlyConfigs(t *testing.T) {
	gcm := AuthOnly(config.AuthGCM, 320, config.AuthCommit, true)
	if gcm.Enc != config.EncNone || !gcm.AuthenticateCounters {
		t.Errorf("GCM auth-only config wrong: %+v", gcm.Enc)
	}
	sha := AuthOnly(config.AuthSHA1, 640, config.AuthSafe, false)
	if sha.SHA1Latency != 640 || sha.ParallelAuth || sha.Req != config.AuthSafe {
		t.Error("SHA auth-only config wrong")
	}
	if sha.AuthenticateCounters {
		t.Error("SHA-only config should not authenticate counters")
	}
}

func TestWithCounterCache(t *testing.T) {
	cfg := WithCounterCache(EncOnly(config.EncCounterSplit, 64), 128<<10)
	if cfg.CounterCache.SizeBytes != 128<<10 {
		t.Error("counter cache size not applied")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestParallelForCoversAll(t *testing.T) {
	r := New(Options{Instructions: 1, Parallelism: 4})
	seen := make([]bool, 100)
	r.parallelFor(len(seen), func(i int) { seen[i] = true })
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestPredictorRun(t *testing.T) {
	r := quickRunner("gcc")
	res, st := r.RunPredictor("gcc", 1)
	if res.Instructions == 0 || st.Misses == 0 {
		t.Fatalf("predictor run empty: %+v %+v", res, st)
	}
}

// TestParallelismDoesNotChangeResults runs every campaign (each exported
// Runner method that returns a stats.Table) serially and on four workers
// and requires the same canonical JSON. Workers write only per-index
// slots; a reduction taken in completion order instead of job order would
// make float results depend on scheduling, since float addition is not
// associative. The reflection check keeps a new campaign from skipping
// this guard.
func TestParallelismDoesNotChangeResults(t *testing.T) {
	// With one P and short jobs the workers tend to finish in submission
	// order, hiding a completion-order reduction. Four Ps make the workers
	// overlap even when the test binary runs with GOMAXPROCS=1, and mcf,
	// the slowest run, goes first so that it tends to finish last.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	cases := []struct {
		name string
		run  func(r *Runner) any
	}{
		{"Fig4", func(r *Runner) any { _, d := r.Fig4(); return d }},
		// Table2's overflow times can be +Inf, which JSON cannot encode;
		// the rendered table carries both the rates and the times.
		{"Table2", func(r *Runner) any { tbl, _ := r.Table2(); return tbl }},
		{"Fig5", func(r *Runner) any { _, d := r.Fig5(); return d }},
		{"Fig6a", func(r *Runner) any { _, res := r.Fig6a(); return res }},
		{"Fig6b", func(r *Runner) any { _, s := r.Fig6b(4); return s }},
		{"Fig7", func(r *Runner) any { _, d := r.Fig7(); return d }},
		{"Fig8", func(r *Runner) any { _, d := r.Fig8(); return d }},
		{"Fig9", func(r *Runner) any { _, d := r.Fig9(); return d }},
		{"Fig10", func(r *Runner) any { _, d := r.Fig10(); return d }},
		{"Scalars", func(r *Runner) any { _, res := r.Scalars(); return res }},
		{"AblateRSRs", func(r *Runner) any { _, rows := r.AblateRSRs(); return rows }},
		{"AblateMinorBits", func(r *Runner) any { _, rows := r.AblateMinorBits(); return rows }},
		{"AblatePageSize", func(r *Runner) any { _, rows := r.AblatePageSize(); return rows }},
		{"AblateMacCache", func(r *Runner) any { _, rows := r.AblateMacCache(); return rows }},
		{"AblateMonoCharge", func(r *Runner) any { _, rows := r.AblateMonoCharge(); return rows }},
	}
	covered := make(map[string]bool, len(cases))
	for _, c := range cases {
		covered[c.name] = true
	}
	rt := reflect.TypeOf(&Runner{})
	tableType := reflect.TypeOf(stats.Table{})
	for i := 0; i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		if m.Type.NumOut() > 0 && m.Type.Out(0) == tableType && !covered[m.Name] {
			t.Errorf("campaign %s is missing from this test's cases", m.Name)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mk := func(par int) string {
				r := New(Options{
					Instructions: 5_000,
					Seed:         1,
					Benches:      []string{"mcf", "swim", "crafty", "twolf"},
					Parallelism:  par,
				})
				raw, err := json.Marshal(c.run(r)) // map keys marshal sorted
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			serial := mk(1)
			// Completion order varies between runs; two make a miss rare.
			for rep := 0; rep < 2; rep++ {
				if parallel := mk(4); parallel != serial {
					t.Fatalf("serial and parallel runs differ:\nserial   %s\nparallel %s", serial, parallel)
				}
			}
		})
	}
}

// TestWorkerCountContract pins the Options.Parallelism resolution rule:
// zero and negative both mean GOMAXPROCS (the zero value must behave like
// DefaultOptions; a negative value is clamped, not serialized), positive
// values pass through untouched.
func TestWorkerCountContract(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ par, want int }{
		{0, max},
		{-1, max},
		{-100, max},
		{1, 1},
		{3, 3},
		{max + 5, max + 5},
	}
	for _, c := range cases {
		r := New(Options{Parallelism: c.par})
		if got := r.workerCount(); got != c.want {
			t.Errorf("Parallelism=%d: workerCount()=%d, want %d", c.par, got, c.want)
		}
	}
	// A negative setting must still drive parallelFor over every index.
	r := New(Options{Parallelism: -2})
	seen := make([]bool, 50)
	r.parallelFor(len(seen), func(i int) { seen[i] = true })
	for i, s := range seen {
		if !s {
			t.Fatalf("Parallelism=-2: index %d not visited", i)
		}
	}
}
