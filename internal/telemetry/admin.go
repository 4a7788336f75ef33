package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// AdminServer is the runtime observability endpoint of a dinar-server
// process: /metrics (Prometheus text format), /healthz (JSON Health
// snapshot), and net/http/pprof under /debug/pprof/. It runs on its own
// listener so operations traffic never shares a port with the FL wire
// protocol.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// AdminMux builds the standard admin route set on a fresh mux: /metrics
// from writeMetrics, /healthz from health (nil serves a zero Health), and
// net/http/pprof under /debug/pprof/. Callers that need extra routes —
// service mode mounts its /jobs API here — add them to the returned mux
// before serving it with ServeHandler.
func AdminMux(health func() Health, writeMetrics func(io.Writer) error) *http.ServeMux {
	if health == nil {
		health = func() Health { return Health{} }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = writeMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		data, err := EncodeHealth(health())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n')) //nolint:errcheck // best-effort response
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeHandler starts an admin HTTP server for handler on addr (":0" for
// an ephemeral port). The server runs until Close.
func ServeHandler(addr string, handler http.Handler) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen %s: %w", addr, err)
	}
	a := &AdminServer{
		ln: ln,
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go a.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return a, nil
}

// ServeAdmin starts an admin server on addr (":0" for an ephemeral port).
// health supplies the /healthz snapshot (nil serves a zero Health);
// /metrics is the merged exposition of regs and of nothing else. The
// server runs until Close.
func ServeAdmin(addr string, health func() Health, regs ...*Registry) (*AdminServer, error) {
	return ServeHandler(addr, AdminMux(health, func(w io.Writer) error {
		return WritePrometheusMerged(w, regs...)
	}))
}

// Addr returns the bound admin address.
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close stops the admin listener and in-flight handlers.
func (a *AdminServer) Close() error { return a.srv.Close() }
