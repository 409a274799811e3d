package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 30, 31},
		{1<<31 - 1, 31},
		{1 << 31, 32},                 // first value in the unbounded bucket
		{1 << 62, 32},                 // far beyond the bounded range: clamped
		{^uint64(0), HistBuckets - 1}, // max value clamps to the last bucket
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Boundary values land strictly below their bucket's upper bound.
	for i := 0; i < HistBuckets-1; i++ {
		bound := BucketBound(i)
		if bound == 0 {
			t.Fatalf("bounded bucket %d reports unbounded", i)
		}
		if idx := BucketIndex(bound - 1); idx > i {
			t.Errorf("value %d (below bound of bucket %d) classified into bucket %d", bound-1, i, idx)
		}
		if idx := BucketIndex(bound); idx != i+1 {
			t.Errorf("bound %d of bucket %d classified into bucket %d, want %d", bound, i, idx, i+1)
		}
	}
	if BucketBound(HistBuckets-1) != 0 {
		t.Errorf("last bucket should be unbounded")
	}

	h := &Histogram{}
	for _, v := range []uint64{0, 1, 1, 3, 8, 300} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.sum != 313 || h.min != 0 || h.max != 300 {
		t.Errorf("sum/min/max = %d/%d/%d, want 313/0/300", h.sum, h.min, h.max)
	}
	want := map[int]uint64{0: 1, 1: 2, 2: 1, 4: 1, 9: 1} // 300 in [256,512)
	for i, n := range h.buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

// simulatedRun drives a registry through a fixed sequence, standing in for
// one deterministic simulation.
func simulatedRun(reg *Registry) {
	miss := reg.Counter("ctrcache.miss")
	hit := reg.Counter("ctrcache.hit")
	wait := reg.Histogram("aes.pipe.wait")
	for i := 0; i < 100; i++ {
		if i%7 == 0 {
			miss.Inc()
			wait.Observe(uint64(i * 3))
		} else {
			hit.Inc()
		}
	}
	reg.SetGauge("bus.util", 0.4375)
}

func TestSnapshotDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	r1 := NewRegistry()
	simulatedRun(r1)
	if err := r1.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	simulatedRun(r2)
	if err := r2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two identical runs produced different JSON:\n%s\n---\n%s", a.String(), b.String())
	}

	// Registration order must not leak into the output: same values
	// registered in reverse order serialize identically.
	r3 := NewRegistry()
	r3.SetGauge("bus.util", 0.4375)
	r3.Histogram("aes.pipe.wait")
	r3.Counter("ctrcache.hit")
	r3.Counter("ctrcache.miss")
	simulatedRun(r3)
	var c bytes.Buffer
	if err := r3.WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Errorf("registration order changed the JSON output")
	}

	var snap Snapshot
	if err := json.Unmarshal(a.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["ctrcache.miss"] != 15 || snap.Counters["ctrcache.hit"] != 85 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Histograms["aes.pipe.wait"].Count != 15 {
		t.Errorf("histogram count = %d, want 15", snap.Histograms["aes.pipe.wait"].Count)
	}
}

func TestNilSafety(t *testing.T) {
	// Nil handles must be no-ops: this is the uninstrumented hot path.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %v", g.Value())
	}
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Mean() != 0 {
		t.Errorf("nil histogram recorded something")
	}

	// Nil registry hands out nil handles and snapshots empty.
	var reg *Registry
	if reg.Counter("a.b") != nil || reg.Gauge("a.b") != nil || reg.Histogram("a.b") != nil {
		t.Errorf("nil registry returned a live handle")
	}
	reg.SetGauge("a.b", 1)
	if names := reg.CounterNames(); names != nil {
		t.Errorf("nil registry has counters: %v", names)
	}
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}

	// Nil recorder accepts every call and writes a valid empty trace.
	var rec *Recorder
	rec.Span("bus", "xfer", 1, 2)
	rec.SpanID("bus", "xfer", 1, 2, 3)
	rec.Instant("ctl", "tamper", 4)
	rec.Begin("txn", "read", 1, 0)
	rec.End("txn", "read", 1, 9)
	if rec.Len() != 0 || rec.Dropped() != 0 {
		t.Errorf("nil recorder stored events")
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("nil recorder WriteJSON: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil recorder trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil recorder trace has %d events", len(doc.TraceEvents))
	}
}

func TestBadMetricNamesPanic(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"", "Upper.case", "sp ace", ".leading", "trailing.", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			reg.Counter(name)
		}()
	}
}

func TestRecorderTraceShape(t *testing.T) {
	rec := NewRecorder(0)
	rec.Begin("txn", "read", 1, 100)
	rec.Span("bus", "xfer", 100, 132)
	rec.SpanID("merkle.level0", "fetch", 132, 300, 1)
	rec.SpanID("merkle.level1", "fetch", 132, 310, 1)
	rec.Instant("ctl", "tamper", 305)
	rec.End("txn", "read", 1, 340)
	if rec.Len() != 6 {
		t.Fatalf("len = %d, want 6", rec.Len())
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Dur  *uint64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 5 tracks get metadata naming events, then the 6 recorded events.
	if len(doc.TraceEvents) != 5+6 {
		t.Fatalf("trace has %d events, want 11", len(doc.TraceEvents))
	}
	tids := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if e.Name != "thread_name" {
				t.Errorf("metadata event named %q", e.Name)
			}
			tids[e.Args["name"].(string)] = e.Tid
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if tids[e.Cat] != e.Tid {
			t.Errorf("event %s/%s on tid %d, track registered as %d", e.Cat, e.Name, e.Tid, tids[e.Cat])
		}
		if e.Ph == "X" && e.Dur == nil {
			t.Errorf("complete event %s/%s missing dur", e.Cat, e.Name)
		}
	}
	// The two Merkle-level fetches overlap in time: that is the parallel
	// authentication picture the trace exists to show.
	if !strings.Contains(buf.String(), "merkle.level1") {
		t.Errorf("trace missing merkle.level1 track")
	}

	// Byte determinism for identical event sequences.
	rec2 := NewRecorder(0)
	rec2.Begin("txn", "read", 1, 100)
	rec2.Span("bus", "xfer", 100, 132)
	rec2.SpanID("merkle.level0", "fetch", 132, 300, 1)
	rec2.SpanID("merkle.level1", "fetch", 132, 310, 1)
	rec2.Instant("ctl", "tamper", 305)
	rec2.End("txn", "read", 1, 340)
	var buf2 bytes.Buffer
	if err := rec2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("identical recordings produced different JSON")
	}
}

func TestRecorderCap(t *testing.T) {
	rec := NewRecorder(3)
	for i := 0; i < 10; i++ {
		rec.Span("bus", "xfer", uint64(i), uint64(i+1))
	}
	if rec.Len() != 3 {
		t.Errorf("len = %d, want 3", rec.Len())
	}
	if rec.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", rec.Dropped())
	}
}
