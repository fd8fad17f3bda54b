package obs

import (
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestHTTPServerShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv, err := ServeHandler(":0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		once.Do(func() { close(entered) })
		<-release
		io.WriteString(w, "drained")
	}))
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr().String() + "/")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request, not kill it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "drained" {
		t.Fatalf("in-flight request = %q, %v; want full response", r.body, r.err)
	}
	// The listener is gone: new connections fail.
	if _, err := http.Get("http://" + srv.Addr().String() + "/"); err == nil {
		t.Error("request after Shutdown succeeded, want connection failure")
	}
}

func TestHardenedServerTimeouts(t *testing.T) {
	srv := HardenedServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("hardened server missing timeouts: %+v", srv)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (pprof profile streams 30s)", srv.WriteTimeout)
	}
}
