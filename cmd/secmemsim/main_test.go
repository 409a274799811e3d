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
	if os.Getenv("SECMEMSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInvalidFlagsExit2 pins the flag values the observability layer would
// otherwise reinterpret as "use the default" or ignore: each must stop the
// command with exit status 2 and a message naming the flag.
func TestInvalidFlagsExit2(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-instr", "0"}, "-instr must be > 0"},
		{[]string{"-tracelimit", "-1"}, "-tracelimit must be >= 0"},
		{[]string{"-samplecap", "-5"}, "-samplecap must be >= 0"},
	}
	for _, c := range cases {
		// A flag that slipped through would start a simulation; the
		// deadline turns a hang into a failure.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-instr", "1000"}, c.args...)...)
		cmd.Env = append(os.Environ(), "SECMEMSIM_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2 (output %q)", c.args, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%v: output %q does not contain %q", c.args, out, c.want)
		}
	}
}
