package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// This file is the repo's only library gateway to the process-global
// debug surfaces: expvar (whose Publish panics on re-registration) and
// net/http/pprof (whose import mounts handlers on the default mux).
// bplint's obs-io rule enforces that no other internal/ package imports
// either — commands get live debugging by asking this package for it.

// publishOnce guards expvar registration: expvar.Publish panics on a
// duplicate name, and commands may wire the same registry into both
// -metrics and -debug-addr. The variable itself indirects through
// published so re-publishing switches registries instead of being
// silently ignored.
var (
	publishOnce sync.Once
	published   atomic.Pointer[Registry]
)

// PublishExpvar exposes the registry's snapshot as the expvar variable
// "obs" (shown under /debug/vars). Idempotent — the expvar name is
// registered once per process — and the variable always renders the
// most recently published registry, which in practice is the process
// registry of whichever command is running.
func PublishExpvar(r *Registry) {
	published.Store(r)
	publishOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any { return published.Load().Snapshot() }))
	})
}

// DebugServer is a live debug endpoint: expvar under /debug/vars,
// pprof under /debug/pprof/, and the registry's deterministic snapshot
// under /metrics.
type DebugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when the Serve goroutine returns
}

// ServeDebug starts a debug HTTP server on addr (e.g. "localhost:6060";
// a ":0" port picks a free one — read it back from Addr). The server
// runs until Close; it exists for live runs only and has no effect on
// the measurement paths.
func ServeDebug(addr string, r *Registry) (*DebugServer, error) {
	PublishExpvar(r)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ds := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(ds.done)
		// Serve returns ErrServerClosed (or a listener error) once Close
		// tears the listener down; there is no caller left to hand it to.
		_ = ds.srv.Serve(ln)
	}()
	return ds, nil
}

// Addr returns the address the server is listening on.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server, releases the listener and waits for the
// Serve goroutine to return. It is safe to call more than once.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
