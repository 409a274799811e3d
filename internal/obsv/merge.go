package obsv

import "sort"

// Merge folds registries into one new Registry, visiting metric names in
// sorted order so the result is independent of both argument order and map
// iteration order:
//
//   - counters sum across registries;
//   - histograms merge bucket-wise (counts and sums add; min/max combine
//     over registries that observed anything);
//   - gauges take the maximum across registries that set them — the
//     registered gauges are utilizations, hit rates, and high-water marks,
//     for which "worst/busiest run" is the meaningful aggregate and,
//     unlike last-writer-wins, is deterministic.
//
// A parallel campaign gives each run its own registry (a Registry is not
// safe for concurrent use) and merges them after the join.
func Merge(regs ...*Registry) *Registry {
	out := NewRegistry()
	for _, name := range unionNames(regs, (*Registry).CounterNames) {
		c := out.Counter(name)
		for _, r := range regs {
			if v, ok := r.counters[name]; ok {
				c.Add(v.v)
			}
		}
	}
	for _, name := range unionNames(regs, (*Registry).GaugeNames) {
		g := out.Gauge(name)
		first := true
		for _, r := range regs {
			if v, ok := r.gauges[name]; ok {
				if first || v.v > g.v {
					g.Set(v.v)
				}
				first = false
			}
		}
	}
	for _, name := range unionNames(regs, (*Registry).HistogramNames) {
		h := out.Histogram(name)
		for _, r := range regs {
			v, ok := r.hists[name]
			if !ok || v.count == 0 {
				continue
			}
			for i, n := range v.buckets {
				h.buckets[i] += n
			}
			if h.count == 0 || v.min < h.min {
				h.min = v.min
			}
			if v.max > h.max {
				h.max = v.max
			}
			h.count += v.count
			h.sum += v.sum
		}
	}
	return out
}

// unionNames is the sorted union of one kind of metric name across regs.
func unionNames(regs []*Registry, names func(*Registry) []string) []string {
	seen := map[string]bool{}
	var all []string
	for _, r := range regs {
		for _, n := range names(r) {
			if !seen[n] {
				seen[n] = true
				all = append(all, n)
			}
		}
	}
	sort.Strings(all)
	return all
}
