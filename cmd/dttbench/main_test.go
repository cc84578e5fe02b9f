package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the dttbench command:
// re-exec'd with DTTBENCH_ARGS set, it runs main() on those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DTTBENCH_ARGS"); ok {
		os.Args = append([]string{"dttbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFailingFigureKeepsItsProfile: a failure after the CPU profile
// started used to os.Exit from a callee, skipping StopCPUProfile and
// leaving an empty file. The failure must come back through run's
// defers: non-zero status, the error on stderr, and a complete profile.
func TestFailingFigureKeepsItsProfile(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(t.TempDir(), "cpu.out")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "DTTBENCH_ARGS=-figure nope -cpuprofile "+prof)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("exit status: %v, want 1; stderr: %s", err, &stderr)
	}
	if !strings.Contains(stderr.String(), `unknown figure "nope"`) {
		t.Errorf("stderr does not name the failure: %s", &stderr)
	}

	// A pprof profile is a gzip-compressed protobuf; one cut short (or
	// never written) fails to decompress.
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream: %v", err)
	}
	if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
		t.Fatalf("profile is truncated: %d bytes, err %v", len(body), err)
	}
}
