package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lotusx/internal/server"
)

// Graceful shutdown, shared by every serving role.  SIGTERM (the rolling
// restart) or SIGINT (the operator's ^C) starts a drain instead of killing
// the process: /readyz flips to draining, the drain gate answers new
// non-exempt requests 503 + Retry-After, http.Server.Shutdown waits for
// in-flight requests, the ingest queue finishes accepted jobs — all under
// the -drain-timeout budget — and only then does the process exit.  Work the
// budget cuts off is not lost: journaled ingests replay on the next start.

// serveUntilSignal listens on addr and serves srv until a shutdown signal,
// then drains.  A nil return is a clean exit: every in-flight request
// finished inside the budget.
func serveUntilSignal(addr string, srv *server.Server, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveListener(ln, srv, drainTimeout, nil)
}

// serveListener is serveUntilSignal over an existing listener with an
// injectable signal channel (nil installs the real SIGTERM/SIGINT handler) —
// the seam the drain tests drive.
func serveListener(ln net.Listener, srv *server.Server, drainTimeout time.Duration, sig <-chan os.Signal) error {
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if sig == nil {
		c := make(chan os.Signal, 1)
		signal.Notify(c, syscall.SIGTERM, os.Interrupt)
		defer signal.Stop(c)
		sig = c
	}
	select {
	case err := <-serveErr:
		srv.Close()
		return err // the listener died on its own; nothing to drain
	case s := <-sig:
		fmt.Printf("received %v: draining for up to %v\n", s, drainTimeout)
	}
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Shutdown stops accepting connections and waits for in-flight requests;
	// the drain gate already refuses new work on kept-alive connections.
	shutdownErr := hs.Shutdown(ctx)
	drainErr := srv.Drain(ctx)
	srv.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if shutdownErr != nil {
		shutdownErr = fmt.Errorf("drain budget expired with requests in flight: %w", shutdownErr)
	}
	if drainErr != nil {
		drainErr = fmt.Errorf("drain budget expired with ingest jobs unfinished (journaled jobs replay on restart): %w", drainErr)
	}
	return errors.Join(shutdownErr, drainErr)
}
