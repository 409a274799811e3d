// Command benchspeed runs the crypto-kernel and end-to-end speed benchmarks
// and records the results as a machine-readable JSON artifact, so raw-speed
// regressions are caught by diffing two artifacts instead of by noticing a
// campaign got slow.
//
//	benchspeed -out BENCH_speed.json             # measure, write artifact
//	benchspeed -benchtime 10ms -e2e=false        # quick kernel-only pass (CI smoke)
//	benchspeed -compare -tol 0.25 -etol 0.5 old.json new.json
//
// Compare mode exits non-zero when any kernel's ns/op in new.json exceeds
// old.json by more than -tol, or when the end-to-end simulator throughput
// drops by more than -etol — independent knobs because the figures carry
// very different noise. Campaign seconds and speedup ratios stay
// informational.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"secmem/internal/aescipher"
	"secmem/internal/config"
	"secmem/internal/gcmmode"
	"secmem/internal/gf128"
	"secmem/internal/harness"
)

// Artifact is the schema of BENCH_speed.json. Kernels are keyed by a stable
// name so compare mode can pair runs from different commits.
type Artifact struct {
	Schema     string             `json:"schema"`
	GoVersion  string             `json:"go_version"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchtime  string             `json:"benchtime"`
	Kernels    map[string]Kernel  `json:"kernels"`
	Speedups   map[string]float64 `json:"speedups"`
	EndToEnd   *EndToEnd          `json:"end_to_end,omitempty"`
}

// Kernel is one testing.Benchmark result.
type Kernel struct {
	NsPerOp float64 `json:"ns_per_op"`
	MBPerS  float64 `json:"mb_per_s,omitempty"`
}

// EndToEnd holds the whole-simulator numbers: one reduced Figure 4 campaign
// and the simulated-instruction throughput of the default protected config.
type EndToEnd struct {
	CampaignFig4Seconds float64 `json:"campaign_fig4_s"`
	SimInstrPerSecond   float64 `json:"sim_instr_per_s"`
}

const schemaID = "secmem-bench-speed/v1"

func key() []byte {
	k := make([]byte, 16)
	for i := range k {
		k[i] = byte(i*7 + 3)
	}
	return k
}

// kernels pairs each fast path with the oracle it replaced; the oracle rows
// exist so the artifact carries the speedup, not just an absolute number.
func kernels() map[string]func(b *testing.B) {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	var hb [16]byte
	copy(hb[:], buf[17:])
	return map[string]func(b *testing.B){
		"aes_block_fast": func(b *testing.B) {
			c := aescipher.MustNew(key())
			var in, out [16]byte
			b.SetBytes(16)
			for i := 0; i < b.N; i++ {
				c.Encrypt(out[:], in[:])
				in = out
			}
		},
		"aes_block_oracle": func(b *testing.B) {
			c := aescipher.MustNew(key())
			var in, out [16]byte
			b.SetBytes(16)
			for i := 0; i < b.N; i++ {
				c.EncryptOracle(out[:], in[:])
				in = out
			}
		},
		"ghash_kb_table": func(b *testing.B) {
			tbl := gf128.NewProductTable8(gf128.FromBytes(hb[:]))
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				gf128.GHASHTable8(&tbl, nil, buf)
			}
		},
		"ghash_kb_serial": func(b *testing.B) {
			h := gf128.FromBytes(hb[:])
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				var y gf128.Element
				for off := 0; off < len(buf); off += 16 {
					y = y.Xor(gf128.FromBytes(buf[off : off+16])).Mul(h)
				}
			}
		},
		"encrypt_block": func(b *testing.B) {
			p := gcmmode.NewPadGen(aescipher.MustNew(key()), 0, 1)
			src := make([]byte, gcmmode.MemBlockSize)
			dst := make([]byte, gcmmode.MemBlockSize)
			b.SetBytes(gcmmode.MemBlockSize)
			for i := 0; i < b.N; i++ {
				p.EncryptBlock(dst, src, uint64(i)<<6, 1)
			}
		},
		"mac64": func(b *testing.B) {
			p := gcmmode.NewPadGen(aescipher.MustNew(key()), 0, 1)
			ct := make([]byte, gcmmode.MemBlockSize)
			for i := range ct {
				ct[i] = byte(i * 5)
			}
			b.SetBytes(gcmmode.MemBlockSize)
			for i := 0; i < b.N; i++ {
				p.MAC(ct, uint64(i)<<6, 1, 64)
			}
		},
	}
}

func measure(benchtime string, e2e bool) (*Artifact, error) {
	// testing.Benchmark reads the package-level -test.benchtime flag;
	// testing.Init registers it so it can be set outside a test binary.
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("bad -benchtime %q: %v", benchtime, err)
	}
	art := &Artifact{
		Schema:     schemaID,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime,
		Kernels:    map[string]Kernel{},
		Speedups:   map[string]float64{},
	}
	ks := kernels()
	for _, name := range sortedNames(ks) {
		r := testing.Benchmark(ks[name])
		k := Kernel{NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N)}
		if r.Bytes > 0 && r.T > 0 {
			k.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		art.Kernels[name] = k
		fmt.Printf("%-18s %12.2f ns/op %10.2f MB/s\n", name, k.NsPerOp, k.MBPerS)
	}
	ratio := func(num, den string) float64 {
		if d := art.Kernels[den].NsPerOp; d > 0 {
			return art.Kernels[num].NsPerOp / d
		}
		return 0
	}
	art.Speedups["aes_block_fast_vs_oracle"] = ratio("aes_block_oracle", "aes_block_fast")
	art.Speedups["ghash_table_vs_serial"] = ratio("ghash_kb_serial", "ghash_kb_table")
	fmt.Printf("speedup aes_block %.2fx, ghash %.2fx\n",
		art.Speedups["aes_block_fast_vs_oracle"], art.Speedups["ghash_table_vs_serial"])

	if e2e {
		// Functional mode makes every simulated transfer pay real pad
		// generation, MAC, and tree maintenance — the figure campaigns
		// themselves run timing-only and would not see kernel changes.
		t0 := time.Now()
		r := harness.New(harness.Options{
			Instructions: 300_000, Seed: 1,
			Benches:    []string{"swim", "mcf", "crafty"},
			Functional: true,
		})
		r.Fig4()
		if err := r.Err(); err != nil {
			return nil, err
		}
		campaign := time.Since(t0).Seconds()

		r2 := harness.New(harness.Options{Instructions: 1_000_000, Seed: 1})
		t0 = time.Now()
		out := r2.Run("swim", config.Default())
		ips := float64(out.CPU.Instructions) / time.Since(t0).Seconds()

		art.EndToEnd = &EndToEnd{
			CampaignFig4Seconds: campaign,
			SimInstrPerSecond:   ips,
		}
		fmt.Printf("end-to-end: fig4 campaign %.2fs, %.0f sim instr/s\n", campaign, ips)
	}
	return art, nil
}

// sortedNames returns a map's keys in sorted order, so benchmark output and
// compare reports print deterministically run to run.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if a.Schema != schemaID {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, a.Schema, schemaID)
	}
	return &a, nil
}

// compare gates on kernel ns/op (tol) and end-to-end throughput (etol) —
// two independent tolerances, because the figures have very different
// noise: kernels are tight, end-to-end numbers track machine load.
// Campaign seconds and speedup ratios stay informational.
func compare(oldPath, newPath string, tol, etol float64) error {
	oldA, err := load(oldPath)
	if err != nil {
		return err
	}
	newA, err := load(newPath)
	if err != nil {
		return err
	}
	regressions := 0
	for _, name := range sortedNames(oldA.Kernels) {
		ok := oldA.Kernels[name]
		nk, present := newA.Kernels[name]
		if !present {
			fmt.Printf("%-18s missing from %s\n", name, newPath)
			regressions++
			continue
		}
		delta := nk.NsPerOp/ok.NsPerOp - 1
		mark := "ok"
		if delta > tol {
			mark = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-18s %12.2f -> %12.2f ns/op  %+6.1f%%  %s\n",
			name, ok.NsPerOp, nk.NsPerOp, delta*100, mark)
	}
	if oldA.EndToEnd != nil && newA.EndToEnd != nil {
		fmt.Printf("%-18s %12.2f -> %12.2f s (informational)\n",
			"campaign_fig4", oldA.EndToEnd.CampaignFig4Seconds, newA.EndToEnd.CampaignFig4Seconds)
		// Throughput gates on slowdown: old/new - 1 is the fraction of
		// throughput lost.
		old, new := oldA.EndToEnd.SimInstrPerSecond, newA.EndToEnd.SimInstrPerSecond
		if old <= 0 || new <= 0 {
			fmt.Printf("%-18s n/a (absent from one artifact)\n", "sim_speed")
		} else {
			mark := "ok"
			if old/new-1 > etol {
				mark = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-18s %12.0f -> %12.0f instr/s  %+6.1f%%  %s (tol %.0f%%)\n",
				"sim_speed", old, new, (new/old-1)*100, mark, etol*100)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d figure(s) regressed beyond tolerance", regressions)
	}
	fmt.Printf("bench-compare: ok (kernels within %.0f%%, end-to-end within %.0f%%)\n",
		tol*100, etol*100)
	return nil
}

func main() {
	testing.Init()
	var (
		out       = flag.String("out", "BENCH_speed.json", "write the benchmark artifact to this file")
		benchtime = flag.String("benchtime", "1s", "per-kernel measurement time (testing -benchtime syntax)")
		e2e       = flag.Bool("e2e", true, "also measure the end-to-end campaign and simulator throughput")
		doCompare = flag.Bool("compare", false, "compare two artifacts: benchspeed -compare [-tol F] [-etol F] old.json new.json")
		tol       = flag.Float64("tol", 0.25, "allowed fractional slowdown per kernel in -compare mode")
		etol      = flag.Float64("etol", 0.5, "allowed fractional end-to-end throughput loss in -compare mode")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchspeed -compare [-tol F] old.json new.json")
			os.Exit(2)
		}
		if err := compare(flag.Arg(0), flag.Arg(1), *tol, *etol); err != nil {
			fmt.Fprintf(os.Stderr, "benchspeed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	art, err := measure(*benchtime, *e2e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchspeed: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchspeed: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		fmt.Fprintf(os.Stderr, "benchspeed: %v\n", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("speed artifact written to %s\n", *out)
}
