package bench

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newServer serves h and counts the TCP connections it accepts.
func newServer(t *testing.T, h http.Handler) (addr string, conns *atomic.Int64) {
	t.Helper()
	conns = new(atomic.Int64)
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String(), conns
}

func TestConnReusesConnection(t *testing.T) {
	addr, conns := newServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		io.WriteString(w, r.URL.Path+":"+string(body))
	}))
	c := NewConn(addr)
	defer c.Close()
	for i := 0; i < 50; i++ {
		status, body, err := c.Do(getRequest("/a"), nil)
		if err != nil || status != 200 || string(body) != "/a:" {
			t.Fatalf("GET %d: status %d body %q err %v", i, status, body, err)
		}
		status, body, err = c.Do(postHead("/b", 3), []byte("xyz"))
		if err != nil || status != 200 || string(body) != "/b:xyz" {
			t.Fatalf("POST %d: status %d body %q err %v", i, status, body, err)
		}
	}
	if conns.Load() != 1 {
		t.Fatalf("100 requests used %d connections, want 1", conns.Load())
	}
}

func TestConnChunkedReply(t *testing.T) {
	addr, conns := newServer(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		for _, part := range []string{"alpha,", strings.Repeat("b", 5000), ",omega"} {
			io.WriteString(w, part)
			w.(http.Flusher).Flush() // forces Transfer-Encoding: chunked
		}
	}))
	c := NewConn(addr)
	defer c.Close()
	want := "alpha," + strings.Repeat("b", 5000) + ",omega"
	for i := 0; i < 3; i++ {
		status, body, err := c.Do(getRequest("/"), nil)
		if err != nil || status != 200 || string(body) != want {
			t.Fatalf("chunked reply %d: status %d, %d bytes, err %v", i, status, len(body), err)
		}
	}
	if conns.Load() != 1 {
		t.Fatalf("chunked replies broke keep-alive: %d connections", conns.Load())
	}
}

func TestConnRedialsAfterClose(t *testing.T) {
	addr, conns := newServer(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, "bye")
	}))
	c := NewConn(addr)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if status, body, err := c.Do(getRequest("/"), nil); err != nil || status != 200 || string(body) != "bye" {
			t.Fatalf("request %d: status %d body %q err %v", i, status, body, err)
		}
	}
	if conns.Load() != 3 {
		t.Fatalf("Connection: close should force a connection per request, got %d", conns.Load())
	}
}

func TestWorkerCountsNon2xxAsFailures(t *testing.T) {
	addr, _ := newServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bad" {
			http.Error(w, "nope", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok")
	}))
	w := &worker{c: NewConn(addr)}
	defer w.c.Close()
	reqs := [][]byte{getRequest("/good"), getRequest("/bad")}
	w.run(reqs, time.Now().Add(100*time.Millisecond), 1, nil)
	if w.attempted < 2 || w.ok+w.failed != w.attempted {
		t.Fatalf("attempted %d, ok %d, failed %d", w.attempted, w.ok, w.failed)
	}
	if w.failed != w.attempted/2 || w.err == nil || !strings.Contains(w.err.Error(), "500") {
		t.Fatalf("alternating good/bad requests: %d of %d failed, first error %v", w.failed, w.attempted, w.err)
	}
	for _, s := range w.samples {
		if s.i != 0 || string(s.body) != "ok" {
			t.Fatalf("a failed response was kept for checking: %+v", s)
		}
	}
	if int64(len(w.lat)) != w.ok {
		t.Fatalf("%d latencies for %d successes", len(w.lat), w.ok)
	}
}
