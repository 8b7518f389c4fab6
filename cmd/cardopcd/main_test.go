package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary double as the daemon: invoked with
// "serve" as its first argument it runs serve on the rest and exits with
// its status, so a test can signal a real daemon process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serve(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// A SIGTERM sent the moment the listening line appears must drain the
// daemon and exit 0, not kill it with the default signal action.
func TestEarlySIGTERMDrains(t *testing.T) {
	cmd := exec.Command(os.Args[0], "serve", "-addr", "127.0.0.1:0", "-warm=false")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	hung := time.AfterFunc(time.Minute, func() { _ = cmd.Process.Kill() })
	defer hung.Stop()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "cardopcd listening on ") {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("first stdout line %q, want the listening line; stderr:\n%s", sc.Text(), stderr.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for sc.Scan() {
		out.WriteString(sc.Text() + "\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited with %v after an early SIGTERM; stdout:\n%s\nstderr:\n%s", err, out.String(), stderr.String())
	}
	if !strings.Contains(out.String(), "cardopcd: drained, bye") {
		t.Errorf("stdout after SIGTERM lacks the drain line:\n%s", out.String())
	}
}
