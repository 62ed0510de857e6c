package soap

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerBoundsStalledBodies: k raw connections each declare a 100-byte
// body and send 10 bytes of it. Serve closes every one of them within its
// wire bound, and the goroutines that served them are gone. An honest 64 KiB
// envelope whose body trickles in over a second, well within the bound, is
// still served. Once its context ends, Serve returns nil.
func TestServerBoundsStalledBodies(t *testing.T) {
	const k = 8
	var handled atomic.Int64
	h := HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		handled.Add(1)
		return nil, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Serve runs on a goroutine of the test's and accepts on one of its
	// own: base counts both, once both are there.
	base := runtime.NumGoroutine() + 2
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, NewHTTPServer(h)) }()
	defer func() {
		stop()
		if err := <-served; err != nil {
			t.Errorf("Serve = %v after its context ended, want nil", err)
		}
	}()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() < base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	addr := ln.Addr().String()

	head := func(n int) string {
		return fmt.Sprintf("POST / HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", addr, ContentType, n)
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
	env := NewEnvelope()
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
	_ = honest.SetReadDeadline(time.Now().Add(wireTimeout))
	status, err := bufio.NewReader(honest).ReadString('\n')
	if err != nil || !strings.HasPrefix(status, "HTTP/1.1 202") || handled.Load() != 1 {
		t.Fatalf("the honest 64 KiB envelope was answered %q (%v), handled %d times; want 202, handled once", status, err, handled.Load())
	}
	honest.Close()

	// Each stalled connection is closed by the server within the bound: a
	// read ends in EOF (after whatever fault the server wrote), not in the
	// reader's own deadline, which is set a little past the bound.
	for i, c := range stalled {
		_ = c.SetReadDeadline(start.Add(wireTimeout + 2*time.Second))
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("stalled connection %d still open %v after its head (read %q, %v)", i, time.Since(start), got, err)
		}
		if bytes.Contains(got, []byte("HTTP/1.1 202")) {
			t.Fatalf("stalled connection %d was served: %q", i, got)
		}
	}
	if took := time.Since(start); took > wireTimeout+2*time.Second {
		t.Fatalf("the stalled connections took %v to close, bound %v", took, wireTimeout)
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

// TestServeStopsOnItsError: an error that stops serving is Serve's, at once,
// whatever its context.
func TestServeStopsOnItsError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if err := Serve(context.Background(), ln, http.NotFoundHandler()); err == nil {
		t.Fatal("Serve on a closed listener returned nil")
	}
}

// TestServeClosesConnectionsThatNeverSentARequest: a peer that opened a
// connection and sent nothing on it — the spare one an http.Transport dials —
// does not hold Serve's shutdown grace: Serve returns within 100 ms of its
// context ending, not after the 3 s grace.
func TestServeClosesConnectionsThatNeverSentARequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, countingListener{ln, accepted}, http.NotFoundHandler()) }()
	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	<-accepted
	time.Sleep(20 * time.Millisecond) // the server has taken it up as a new connection
	cancel()
	start := time.Now()
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Serve returned %v after its context ended, with a connection that never sent a request", took)
	}
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Fatal("the idle connection is still open")
	}
}

// countingListener signals each connection it accepts.
type countingListener struct {
	net.Listener
	accepted chan<- struct{}
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		select {
		case l.accepted <- struct{}{}:
		default:
		}
	}
	return c, err
}

// TestHTTPClientDefaultsToWireBound: a client made from an http.Client with
// no positive Timeout, or from none, waits for a POST as long as Serve lets a
// request take; one that sets a Timeout keeps it.
func TestHTTPClientDefaultsToWireBound(t *testing.T) {
	for _, c := range []struct {
		hc   *http.Client
		want time.Duration
	}{
		{nil, wireTimeout},
		{&http.Client{}, wireTimeout},
		{&http.Client{Timeout: -1}, wireTimeout},
		{&http.Client{Timeout: time.Second}, time.Second},
	} {
		if got := NewHTTPClient(c.hc).timeout; got != c.want {
			t.Errorf("NewHTTPClient(%+v) waits %v, want %v", c.hc, got, c.want)
		}
	}
}

// TestOneServingPath: outside this package no non-test file of the module
// writes an http.Server or http.Client literal, so no caller serves or posts
// with bounds of its own: servers come from Serve, clients from
// NewHTTPClient. The benchmark is a module of its own and is not walked.
func TestOneServingPath(t *testing.T) {
	root := filepath.Join("..", "..")
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			abs, err := filepath.Abs(path)
			if err != nil {
				return err
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" || abs == self {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		checked++
		for _, lit := range httpLiterals(f) {
			t.Errorf("%s: an http.%s literal; serve with soap.Serve and post with soap.NewHTTPClient",
				fset.Position(lit.Pos()), lit.Type.(*ast.SelectorExpr).Sel.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("checked only %d files under %s", checked, root)
	}
}

// httpLiterals returns f's composite literals of net/http's Server or
// Client, under whatever name f imports the package.
func httpLiterals(f *ast.File) []*ast.CompositeLit {
	pkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "net/http" {
			pkg = "http"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	var lits []*ast.CompositeLit
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if sel, ok := lit.Type.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg && (sel.Sel.Name == "Server" || sel.Sel.Name == "Client") {
				lits = append(lits, lit)
			}
		}
		return true
	})
	return lits
}
