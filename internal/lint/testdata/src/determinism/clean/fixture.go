// Package clean exercises the determinism analyzer's negatives: the
// collect-then-sort idiom, sorted-key iteration, commutative updates inside
// map ranges, and explicitly seeded randomness.
package clean

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// render iterates sorted keys before emitting: deterministic output.
func render(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // collect-then-sort: sorted below
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, m[k])
	}
	return b.String()
}

// tally performs commutative updates while ranging a map: the final counts
// are independent of iteration order.
func tally(m map[string]int) (int, map[string]bool) {
	total := 0
	seen := make(map[string]bool)
	for k, v := range m {
		total += v
		seen[k] = true
	}
	return total, seen
}

// deterministicDraw threads an explicitly seeded generator: same seed,
// same sequence, every run.
func deterministicDraw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(100)
}
