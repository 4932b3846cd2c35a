package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that writes half a request line and stalls must have its
// connection closed once readHeaderTimeout passes.
func TestStalledHeaderIsCut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", http.NotFoundHandler())
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// The test's own backstop: fail rather than hang if the server never
	// closes.
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v (header timeout %v)", elapsed, readHeaderTimeout)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout %v", elapsed, readHeaderTimeout)
	}
}
