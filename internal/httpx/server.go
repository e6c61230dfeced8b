package httpx

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers. It stops slowloris clients from pinning connections; bodies
// and responses stay unbounded in time because /v1/explore streams for as
// long as its sweep runs.
const readHeaderTimeout = 10 * time.Second

// Server is a bound listener with its http.Server, the lifecycle
// cmd/nsserve and cmd/nsrouter share.
type Server struct {
	hs *http.Server
	ln net.Listener
}

// Listen binds addr for h. The socket queues connections from here on,
// so a replica may announce itself before it calls Serve.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{hs: &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}, ln: ln}, nil
}

// Serve answers requests until the listener fails or the process gets
// SIGINT or SIGTERM. On a signal it runs beforeShutdown (nil skips it),
// then shuts down gracefully within drain; a drain that runs out of time
// is reported on stderr under name. It returns the listener's error, or
// nil after a signal.
func (s *Server) Serve(name string, drain time.Duration, beforeShutdown func()) error {
	errc := make(chan error, 1)
	go func() { errc <- s.hs.Serve(s.ln) }()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if beforeShutdown != nil {
		beforeShutdown()
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", name, err)
	}
	return nil
}
