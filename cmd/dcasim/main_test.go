package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dcasim/internal/config"
)

// TestMain lets a test re-run this binary as the dcasim command: with
// DCASIM_MAIN_ARGS set, the process runs main with those arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DCASIM_MAIN_ARGS"); ok {
		os.Args = append([]string{"dcasim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns its
// exit code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "DCASIM_MAIN_ARGS="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// configFileFailsCleanly saves the test-scale config, changed by mutate,
// runs the command on it, and requires exit code 1 with an error that
// contains want, not a panic.
func configFileFailsCleanly(t *testing.T, mutate func(*config.Config), want string) {
	t.Helper()
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf"}
	mutate(&cfg)
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := config.Save(path, cfg); err != nil {
		t.Fatal(err)
	}
	code, stderr := runMain(t, "-config", path)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine") {
		t.Fatalf("the command panicked:\n%s", stderr)
	}
	if !strings.Contains(stderr, want) {
		t.Fatalf("the error does not contain %q:\n%s", want, stderr)
	}
}

// TestConfigFileTooManyBanksFailsCleanly: a -config scenario whose
// channels have more banks than the controller supports must fail with
// an error, not crash the process with a panic.
func TestConfigFileTooManyBanksFailsCleanly(t *testing.T) {
	configFileFailsCleanly(t, func(c *config.Config) { c.Banks = 128 }, "128 banks")
}

// TestConfigFileZeroWidthFailsCleanly: a zero dispatch width is a config
// error, not an integer divide by zero in the core model.
func TestConfigFileZeroWidthFailsCleanly(t *testing.T) {
	configFileFailsCleanly(t, func(c *config.Config) { c.CPU.Width = 0 }, "dispatch width")
}

// TestConfigFileNegativeLatenciesFailCleanly: a negative L2 hit latency
// or main-memory latency would schedule events in the past; both are
// config errors, not a panic in the event kernel.
func TestConfigFileNegativeLatenciesFailCleanly(t *testing.T) {
	configFileFailsCleanly(t, func(c *config.Config) { c.L2HitLat = -5 }, "L2 hit latency")
	configFileFailsCleanly(t, func(c *config.Config) { c.MainMem.Latency = -1 }, "mainmem: negative latency")
}

// TestConfigFilePartialBlockCacheFailsCleanly: an L1 size that is not a
// whole number of sets fails the run instead of being truncated.
func TestConfigFilePartialBlockCacheFailsCleanly(t *testing.T) {
	configFileFailsCleanly(t, func(c *config.Config) { c.L1Bytes = 30000 }, "30000 bytes")
}
