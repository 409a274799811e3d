package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself instead of the tests when the helper
// variable is set, so a test can drive main's flag handling in a child
// process of the test binary and observe its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERBENCH_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process of the test
// binary and returns its combined output and exit error. A run that
// outlasts the deadline is killed and fails the caller.
func runMain(args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAPERBENCH_TEST_MAIN=1")
	return cmd.CombinedOutput()
}

// TestZeroInstrExit2: -instr 0 must fail loudly instead of running the
// harness's 2M-instruction default.
func TestZeroInstrExit2(t *testing.T) {
	// Accepting the flag would start a minutes-long campaign; the deadline
	// turns that into a failure.
	out, err := runMain("-instr", "0", "-fig", "4")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit status 2 (output %q)", err, out)
	}
	if !strings.Contains(string(out), "-instr must be > 0") {
		t.Errorf("output %q does not name -instr", out)
	}
}

// TestTable2JSONEncodesNeverAsNull: Table 2 reports a counter that never
// overflows as +Inf seconds, which JSON cannot encode; -json must still
// succeed and write such a time as null.
func TestTable2JSONEncodesNeverAsNull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t2.json")
	if out, err := runMain("-table", "2", "-instr", "2000", "-json", path); err != nil {
		t.Fatalf("err = %v, want exit status 0 (output %q)", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Overflow map[string]map[string]*float64 `json:"table2_overflow_seconds"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for _, row := range got.Overflow {
		for _, v := range row {
			if v == nil {
				nulls++
			}
		}
	}
	// At 2000 instructions no counter advances, so every time is "never".
	if nulls == 0 {
		t.Errorf("no null overflow time in %s", raw)
	}
}
