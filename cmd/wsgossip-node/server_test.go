package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsgossip/internal/soap"
)

// TestServerBoundsStalledBodies: k raw connections each declare a 100-byte
// body and send 10 bytes of it. The node's server closes every one of them
// within its read bound, and the goroutines that served them are gone. An
// honest 64 KiB envelope whose body trickles in over a second, well within
// the bound, is still served.
func TestServerBoundsStalledBodies(t *testing.T) {
	const k = 8
	var handled atomic.Int64
	h := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		handled.Add(1)
		return nil, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), soap.NewHTTPServer(h))
	go func() { _ = srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()
	base := runtime.NumGoroutine()

	head := func(n int) string {
		return fmt.Sprintf("POST / HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", addr, soap.ContentType, n)
	}
	start := time.Now()
	stalled := make([]net.Conn, k)
	for i := range stalled {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, head(100)+strings.Repeat("x", 10)); err != nil {
			t.Fatal(err)
		}
		stalled[i] = c
	}

	// The honest envelope, written in four parts a quarter second apart.
	env := soap.NewEnvelope()
	if err := env.SetBody(struct {
		XMLName struct{} `xml:"urn:wsgossip:demo Note"`
		Text    string   `xml:"Text"`
	}{Text: strings.Repeat("y", 64<<10)}); err != nil {
		t.Fatal(err)
	}
	body, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	honest, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	msg := append([]byte(head(len(body))), body...)
	for part := range 4 {
		if _, err := honest.Write(msg[part*len(msg)/4 : (part+1)*len(msg)/4]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	_ = honest.SetReadDeadline(time.Now().Add(readTimeout))
	status, err := bufio.NewReader(honest).ReadString('\n')
	if err != nil || !strings.HasPrefix(status, "HTTP/1.1 202") || handled.Load() != 1 {
		t.Fatalf("the honest 64 KiB envelope was answered %q (%v), handled %d times; want 202, handled once", status, err, handled.Load())
	}
	honest.Close()

	// Each stalled connection is closed by the server within the bound: a
	// read ends in EOF (after whatever fault the server wrote), not in the
	// reader's own deadline, which is set a little past the bound.
	for i, c := range stalled {
		_ = c.SetReadDeadline(start.Add(readTimeout + 2*time.Second))
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("stalled connection %d still open %v after its head (read %q, %v)", i, time.Since(start), got, err)
		}
		if bytes.Contains(got, []byte("HTTP/1.1 202")) {
			t.Fatalf("stalled connection %d was served: %q", i, got)
		}
	}
	if took := time.Since(start); took > readTimeout+2*time.Second {
		t.Fatalf("the stalled connections took %v to close, bound %v", took, readTimeout)
	}
	// Their goroutines are gone: back to at most what ran before they came.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the stalled connections closed, %d before they came", n, base)
	}
	if handled.Load() != 1 {
		t.Fatalf("handler ran %d times, want only the honest envelope's", handled.Load())
	}
}
