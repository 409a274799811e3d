package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"secmem/internal/config"
)

// host fingerprints the machine a result was measured on. Results from
// different hosts are not compared.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Traced       bool   `json:"traced"`
	Instructions uint64 `json:"instructions_per_sim"`
	Sims         int    `json:"sims_per_rep"`
	// Config is the simulated machine of a single-simulation workload; a
	// campaign records its benches and schemes instead.
	Config   *config.SystemConfig `json:"config,omitempty"`
	Bench    string               `json:"bench,omitempty"`
	Campaign []string             `json:"campaign_benches,omitempty"`
	Schemes  []string             `json:"campaign_schemes,omitempty"`
	Host     host                 `json:"host"`
	Revision string               `json:"vcs_revision"`
	Modified string               `json:"vcs_modified"`
}

func newProvenance(w workload, seed int64, seconds int, traced bool) provenance {
	p := provenance{
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Traced:       traced,
		Instructions: w.instr,
		Sims:         len(w.jobs()),
		Host: host{
			CPUModel:   cpuModel(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOARCH:     runtime.GOARCH,
		},
		Revision: "unknown",
		Modified: "unknown",
	}
	if w.campaign != nil {
		p.Campaign = w.campaign
		for _, j := range w.jobs() {
			if len(p.Schemes) == 0 || p.Schemes[len(p.Schemes)-1] != j.scheme {
				p.Schemes = append(p.Schemes, j.scheme)
			}
		}
	} else {
		cfg := w.cfg
		p.Config, p.Bench = &cfg, w.bench
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the host CPU model name; "unknown" where /proc/cpuinfo is
// unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// savedRun is one run's provenance and result, read back from its output.
type savedRun struct {
	Provenance provenance
	Result     result
}

// readRuns parses every (provenance, result) pair in a file holding the
// concatenated standard output of one or more runs.
func readRuns(path string) ([]savedRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	var prov *provenance
	for _, line := range strings.Split(string(data), "\n") {
		var p struct {
			Provenance *provenance `json:"provenance"`
		}
		if json.Unmarshal([]byte(line), &p) == nil && p.Provenance != nil {
			prov = p.Provenance
			continue
		}
		var r result
		if prov != nil && json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			runs = append(runs, savedRun{Provenance: *prov, Result: r})
			prov = nil
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark output found", path)
	}
	return runs, nil
}

// compareOutputs prints, per workload and metric, the median of each side
// and their ratio. It refuses to compare runs taken on different hosts, or
// runs that failed a check.
func compareOutputs(w io.Writer, oldPath, newPath string) error {
	oldRuns, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	newRuns, err := readRuns(newPath)
	if err != nil {
		return err
	}
	all := append(append([]savedRun(nil), oldRuns...), newRuns...)
	for _, r := range all {
		if r.Provenance.Host != all[0].Provenance.Host {
			return fmt.Errorf("refusing to compare runs from different hosts: %+v vs %+v", all[0].Provenance.Host, r.Provenance.Host)
		}
		if !r.Result.Correct {
			return fmt.Errorf("refusing to compare: a %s run at seed %d failed %d check(s)",
				r.Provenance.Workload, r.Provenance.Seed, r.Result.Failed)
		}
	}
	type key struct{ workload, metric string }
	values := func(runs []savedRun) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range runs {
			for name, v := range r.Result.Metrics {
				k := key{r.Provenance.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	oldV, newV := values(oldRuns), values(newRuns)
	var keys []key
	for k := range newV {
		if _, ok := oldV[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-18s %-28s %14s %14s %8s\n", "workload", "metric", "old median", "new median", "new/old")
	for _, k := range keys {
		o, n := median(oldV[k]), median(newV[k])
		r := "-"
		if o != 0 {
			r = fmt.Sprintf("%.3f", n/o)
		}
		fmt.Fprintf(w, "%-18s %-28s %14.6g %14.6g %8s\n", k.workload, k.metric, o, n, r)
	}
	return nil
}
