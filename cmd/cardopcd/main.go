// Command cardopcd runs the CardOPC correction pipeline as a
// persistent HTTP daemon: SOCS kernel sets, FFT plans and the fft
// scratch pools stay warm across jobs, so steady-state requests skip
// the cold-start work a CLI invocation pays every time.
//
// Serve (the default; "cardopcd serve" is an explicit alias):
//
//	cardopcd -addr 127.0.0.1:8347
//
// prints one "cardopcd listening on http://…" line once the socket is
// bound (use -addr 127.0.0.1:0 for an ephemeral port and parse that
// line), then serves until SIGTERM/SIGINT, at which point it drains:
// stops accepting (submits answer 503, /healthz flips to draining),
// finishes the jobs already accepted, flushes telemetry and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cardopc/internal/litho"
	"cardopc/internal/server"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "serve" {
		args = args[1:]
	}
	// Reject stray words rather than letting flag.Parse stop at them —
	// "cardopcd sevre -addr :0" must not silently boot on the default
	// port with every flag ignored.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(os.Stderr, "cardopcd: unknown subcommand %q (want serve)\n", args[0])
		os.Exit(2)
	}
	os.Exit(serve(args))
}

// serve boots the daemon and blocks until shutdown completes.
func serve(args []string) int {
	fs := flag.NewFlagSet("cardopcd", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8347", "listen address (host:0 picks an ephemeral port)")
		queueDepth = fs.Int("queue", 64, "bounded job queue depth (full queue answers 429)")
		workers    = fs.Int("workers", 2, "concurrent job executors (telemetry stays per-job exact at any count)")
		jobTimeout = fs.Duration("job-timeout", 5*time.Minute, "default per-job deadline")
		drainWait  = fs.Duration("drain-timeout", 2*time.Minute, "graceful drain budget before in-flight jobs are cancelled")
		warm       = fs.Bool("warm", true, "pre-build the default kernel set at boot")
		warmGrid   = fs.Int("warm-grid", 0, "also pre-build kernels for this grid size (0 = only the default raster)")
		warmPitch  = fs.Float64("warm-pitch", 8, "pixel pitch for -warm-grid")
	)
	_ = fs.Parse(args)

	s := server.New(server.Config{
		QueueDepth:  *queueDepth,
		ExecWorkers: *workers,
		JobTimeout:  *jobTimeout,
	})
	defer s.Close()
	if *warm {
		s.Warm(litho.DefaultConfig())
	}
	if *warmGrid > 0 {
		cfg := litho.DefaultConfig()
		cfg.GridSize = *warmGrid
		cfg.PitchNM = *warmPitch
		s.Warm(cfg)
	}

	// Catch SIGTERM/SIGINT before the socket exists: a boot script may
	// signal as soon as it reads the listening line, and that signal must
	// drain the daemon, not kill it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cardopcd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	// The one line boot scripts parse; flushed before serving starts.
	fmt.Printf("cardopcd listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "cardopcd: serve:", err)
		return 1
	}
	stop() // restore default signal handling: a second signal kills us

	fmt.Println("cardopcd: draining…")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "cardopcd: drain:", err)
	}
	// Keep /healthz and /v1/jobs answering through the drain (clients
	// poll their jobs to completion), then close the listener.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = httpSrv.Shutdown(sctx)
	fmt.Println("cardopcd: drained, bye")
	return 0
}
