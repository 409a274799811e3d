package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secmem/internal/trace"
)

// TestMain runs the command itself instead of the tests when the helper
// variable is set, so a test can drive main in a child process of the test
// binary and observe its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("SECMEMTRACE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its combined output and
// exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SECMEMTRACE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("%v: %v", args, err)
	return "", 0
}

// TestExitStatus pins the command's exit contract: zero counts and a
// missing mode are usage errors (status 2), simulating a trace with no
// events fails (status 1) instead of printing a NaN ratio, and a real
// record-then-simulate round trip succeeds.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.smtr")
	empty := filepath.Join(dir, "empty.smtr")
	f, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		args   []string
		status int
		want   string
	}{
		{[]string{"-record", "-o", tr, "-n", "0"}, 2, "-n must be > 0"},
		{[]string{"-sim", "-i", tr, "-instr", "0"}, 2, "-instr must be > 0"},
		{nil, 2, "pick one of -record, -stats, -sim"},
		{[]string{"-sim", "-i", empty}, 1, "holds no events"},
		{[]string{"-record", "-bench", "swim", "-o", tr, "-n", "2000"}, 0, "recorded 2000 events"},
		{[]string{"-sim", "-i", tr, "-instr", "5000"}, 0, "normalized IPC:"},
	}
	for _, c := range cases {
		out, status := runMain(t, c.args...)
		if status != c.status {
			t.Errorf("%v: exit status %d, want %d (output %q)", c.args, status, c.status, out)
			continue
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%v: output %q does not contain %q", c.args, out, c.want)
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%v: output %q holds a non-finite number", c.args, out)
		}
	}
}
