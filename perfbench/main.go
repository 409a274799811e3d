// Command perfbench is the repository benchmark. It drives the secure-memory
// simulator only through its public entry points (trace.NewGenerator,
// core.NewMemSystem, cpu.New(...).Run, harness.New(...).Fig9 and the
// gcmmode/aescipher/gf128 kernels) on four workloads:
//
//   - an untraced run (--trace 0) times the end-to-end metrics;
//   - a traced run (--trace 1) times each layer from outside, around the
//     calls into it, and reads the simulated counts;
//   - output checks run outside the timed regions in both, and each checked
//     operation that fails counts against the number attempted.
//
// Usage, from the module root of the repository checkout:
//
//	python3 perfbench/run.py --workload stream-timing --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --compare old.out new.out
//
// The next-to-last line of standard output is the provenance record (seed,
// instruction budget, config, host, build); the last line is the result.
// NOTES.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	compare := flag.Bool("compare", false, "compare the saved outputs of two runs given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare takes two saved outputs")
			os.Exit(2)
		}
		if err := compareOutputs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	budget := time.Duration(seconds) * time.Second
	var c checker
	var m map[string]metric
	if traced == 1 {
		m, err = perLayer(w, seed, budget, &c)
	} else {
		m, err = endToEnd(w, seed, budget, &c)
	}
	if err != nil {
		return err
	}
	prov, err := json.Marshal(map[string]any{"provenance": newProvenance(w, seed, seconds, traced == 1)})
	if err != nil {
		return err
	}
	res, err := json.Marshal(result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", prov, res)
	return nil
}
