package obsv

import (
	"bytes"
	"testing"
)

func TestShardedMergeSemantics(t *testing.T) {
	sh := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
	// Counters sum; names present in only some registries still merge.
	sh[0].Counter("ctl.fill").Add(10)
	sh[1].Counter("ctl.fill").Add(32)
	sh[2].Counter("only.here").Inc()
	// Gauges take the max across registries that set them.
	sh[0].SetGauge("bus.util", 0.25)
	sh[2].SetGauge("bus.util", 0.75)
	sh[1].SetGauge("solo", -2)
	// Histograms merge bucket-wise with min/max combined.
	sh[0].Histogram("lat").Observe(4)
	sh[0].Histogram("lat").Observe(100)
	sh[2].Histogram("lat").Observe(1)

	m := Merge(sh...)
	if got := m.Counter("ctl.fill").Value(); got != 42 {
		t.Errorf("merged ctl.fill = %d, want 42", got)
	}
	if got := m.Counter("only.here").Value(); got != 1 {
		t.Errorf("merged only.here = %d, want 1", got)
	}
	if got := m.Gauge("bus.util").Value(); got != 0.75 {
		t.Errorf("merged bus.util = %g, want 0.75 (max)", got)
	}
	if got := m.Gauge("solo").Value(); got != -2 {
		t.Errorf("merged solo = %g, want -2", got)
	}
	h := m.Snapshot().Histograms["lat"]
	if h.Count != 3 || h.Sum != 105 || h.Min != 1 || h.Max != 100 {
		t.Errorf("merged lat = count %d sum %d min %d max %d, want 3/105/1/100",
			h.Count, h.Sum, h.Min, h.Max)
	}
	var total uint64
	for _, b := range h.Buckets {
		total += b.N
	}
	if total != 3 {
		t.Errorf("merged lat buckets hold %d observations, want 3", total)
	}
}

func TestShardedMergeDeterministic(t *testing.T) {
	build := func(order []int) string {
		sh := []*Registry{NewRegistry(), NewRegistry(), NewRegistry(), NewRegistry()}
		for _, i := range order {
			sh[i].Counter("c.a").Add(uint64(i + 1))
			sh[i].SetGauge("g.x", float64(i))
			sh[i].Histogram("h.l").Observe(uint64(1 << i))
		}
		var buf bytes.Buffer
		if err := Merge(sh...).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if a != b {
		t.Error("merge output depends on registry fill order")
	}
}

func TestShardedEmptyShardsIgnored(t *testing.T) {
	sh := []*Registry{NewRegistry(), NewRegistry()}
	sh[0].Histogram("lat").Observe(7)
	// Registry 1 registers the histogram but never observes: its zero min
	// must not clobber the merged min.
	sh[1].Histogram("lat")
	h := Merge(sh...).Snapshot().Histograms["lat"]
	if h.Min != 7 || h.Max != 7 || h.Count != 1 {
		t.Errorf("empty registry polluted merge: min %d max %d count %d", h.Min, h.Max, h.Count)
	}
}

// TestMergeNothing: a campaign of zero runs merges to an empty, usable
// registry.
func TestMergeNothing(t *testing.T) {
	m := Merge()
	if m == nil || len(m.CounterNames())+len(m.GaugeNames())+len(m.HistogramNames()) != 0 {
		t.Fatal("merge of no registries not empty")
	}
	m.Counter("x").Inc()
	if m.Counter("x").Value() != 1 {
		t.Error("merged registry not usable")
	}
}

func TestShardCounterIncDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot.path")
	h := reg.Histogram("hot.lat")
	avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(17)
	})
	if avg != 0 {
		t.Errorf("hot-path metrics allocate %.1f times per op, want 0", avg)
	}
}
