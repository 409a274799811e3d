// Package violating exercises the determinism analyzer's positive cases:
// ordered sinks and unsorted appends inside map ranges, and wall-clock and
// process-global randomness in an internal package.
package violating

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// emitInMapOrder prints while ranging a map: output order changes per run.
func emitInMapOrder(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "fmt.Printf inside a map range emits in randomized iteration order"
	}
}

// recordInMapOrder streams and collects in iteration order; lines is never
// sorted before it is rendered.
func recordInMapOrder(m map[string]int, b *strings.Builder) []string {
	var lines []string
	for k := range m {
		b.WriteString(k)         // want "WriteString call inside a map range"
		lines = append(lines, k) // want "append to lines inside a map range .* never sorted afterwards"
	}
	return lines
}

// stamp makes simulation output depend on the wall clock.
func stamp() int64 {
	return time.Now().Unix() // want "time.Now in an internal package"
}

// jitter draws from the process-global generator, reseeded every run.
func jitter() int {
	return rand.Intn(8) // want "rand.Intn draws from the process-global generator"
}
