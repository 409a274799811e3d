package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
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

// TestZeroInstrExit2: -instr 0 must fail loudly instead of running the
// harness's 2M-instruction default.
func TestZeroInstrExit2(t *testing.T) {
	// Accepting the flag would start a minutes-long campaign; the deadline
	// turns that into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-instr", "0", "-fig", "4")
	cmd.Env = append(os.Environ(), "PAPERBENCH_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit status 2 (output %q)", err, out)
	}
	if !strings.Contains(string(out), "-instr must be > 0") {
		t.Errorf("output %q does not name -instr", out)
	}
}
