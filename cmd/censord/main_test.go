package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestStalledHeaderDisconnected: a client that sends half a request
// header and then goes quiet is cut off once readHeaderTimeout passes,
// while a complete request on another connection is still served.
func TestStalledHeaderDisconnected(t *testing.T) {
	srv := newServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at Close
	defer srv.Close()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: censord\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("complete request next to the stalled one: %v", err)
	}
	resp.Body.Close()

	if err := stalled.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, stalled)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if n != 0 {
		t.Errorf("stalled client got %d response bytes, want a bare disconnect", n)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout {
		t.Errorf("stalled client cut off after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
