package soap

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sentClass is the capacity of the buffers these tests send: a size class
// the HTTP server's request reader never draws from for their small bodies,
// so a buffer taken from that class can only be one a send gave back.
const sentClass = 8 << 10

// pooledEnvelope returns the encoded one-way envelope carrying value in a
// buffer drawn from the sentClass size class, as the stack's senders hand
// SendEncoded a pooled buffer.
func pooledEnvelope(t testing.TB, value string) []byte {
	t.Helper()
	env := NewEnvelope()
	if err := env.SetBody(testBody{Value: value}); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return append(getBytes(sentClass), data...)
}

// drawnBack reports whether the sentClass pool hands back data's array
// within a few draws, which go back to the pool after.
func drawnBack(data []byte) bool {
	var drawn [4][]byte
	found := false
	for i := range drawn {
		drawn[i] = getBytes(sentClass)
		if cap(drawn[i]) > 0 && &drawn[i][:1][0] == &data[:1][0] {
			found = true
		}
	}
	for _, b := range drawn {
		putBytes(b)
	}
	return found
}

// TestHTTPClientNon2xxIsAnError: only a 2xx answer is delivery. A redirect
// is not followed, and it, a 304 and a 500 without a fault are each an error
// naming the status, from SendEncoded and from Call alike.
func TestHTTPClientNon2xxIsAnError(t *testing.T) {
	var followed atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/elsewhere", func(w http.ResponseWriter, _ *http.Request) {
		followed.Add(1)
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		code, _ := strconv.Atoi(r.URL.Query().Get("status"))
		if r.URL.Query().Get("location") != "" {
			w.Header().Set("Location", "/elsewhere")
		}
		if code == http.StatusInternalServerError {
			http.Error(w, "not a fault", code)
			return
		}
		w.WriteHeader(code)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewHTTPClient(srv.Client())

	cases := []struct {
		status   int
		location bool
	}{
		{http.StatusFound, false},
		{http.StatusFound, true},
		{http.StatusTemporaryRedirect, false},
		{http.StatusTemporaryRedirect, true},
		{http.StatusPermanentRedirect, true},
		{http.StatusNotModified, false},
		{http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		to := srv.URL + "/?status=" + strconv.Itoa(tc.status)
		if tc.location {
			to += "&location=1"
		}
		t.Run(strconv.Itoa(tc.status)+map[bool]string{true: "-location"}[tc.location], func(t *testing.T) {
			want := strconv.Itoa(tc.status)
			err := client.SendEncoded(context.Background(), to, pooledEnvelope(t, "v"))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("SendEncoded = %v, want an error naming %s", err, want)
			}
			resp, err := client.Call(context.Background(), to, newCallEnv(t, to, "urn:x", testBody{Value: "v"}))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Call = (%v, %v), want an error naming %s", resp, err, want)
			}
		})
	}
	if n := followed.Load(); n != 0 {
		t.Fatalf("a redirect was followed %d times", n)
	}
}

// stallingServer answers nothing until its client gives up or three seconds
// have passed, long past every bound these tests set.
func stallingServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to its end lets the server see the client hang up.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(3 * time.Second):
			w.WriteHeader(http.StatusAccepted)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPClientTimeoutBoundsEachRequest: the http.Client's Timeout bounds a
// SendEncoded or a Call made with no deadline, or with a later one; a
// context's earlier deadline bounds it first.
func TestHTTPClientTimeoutBoundsEachRequest(t *testing.T) {
	srv := stallingServer(t)
	client := NewHTTPClient(&http.Client{Transport: srv.Client().Transport, Timeout: 100 * time.Millisecond})
	later, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"no deadline", context.Background()}, {"later deadline", later}} {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			err := client.SendEncoded(c.ctx, srv.URL, pooledEnvelope(t, "v"))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("SendEncoded = %v, want context.DeadlineExceeded", err)
			}
			_, err = client.Call(c.ctx, srv.URL, newCallEnv(t, srv.URL, "urn:x", testBody{Value: "v"}))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Call = %v, want context.DeadlineExceeded", err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("two requests with a 100ms timeout took %v", d)
			}
		})
	}
	t.Run("earlier deadline", func(t *testing.T) {
		slow := NewHTTPClient(&http.Client{Transport: srv.Client().Transport, Timeout: time.Hour})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := slow.SendEncoded(ctx, srv.URL, pooledEnvelope(t, "v")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("SendEncoded = %v, want context.DeadlineExceeded", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("a request with a 100ms deadline took %v", d)
		}
	})
}

// TestHTTPClientReusesOneConnection: a thousand sequential sends to one
// server, answered 202 or with a response envelope the send drains, open
// exactly one TCP connection.
func TestHTTPClientReusesOneConnection(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewUnstartedServer(NewHTTPServer(HandlerFunc(func(_ context.Context, req *Request) (*Envelope, error) {
		if n.Add(1)%2 == 0 {
			return nil, nil
		}
		resp := NewEnvelope()
		if err := resp.SetBody(testBody{Value: "answer"}); err != nil {
			return nil, err
		}
		return resp, nil
	})))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := NewHTTPClient(srv.Client())
	for i := 0; i < 1000; i++ {
		if err := client.SendEncoded(context.Background(), srv.URL, pooledEnvelope(t, strconv.Itoa(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("1000 sequential sends opened %d connections, want 1", got)
	}
}

// TestHTTPClientRecyclesSentBuffer: a delivered send's buffer goes back to
// the wire pool, and the body the transport was handed reads nothing more
// once SendEncoded has returned, however late the transport reads it.
func TestHTTPClientRecyclesSentBuffer(t *testing.T) {
	srv := httptest.NewServer(NewHTTPServer(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, nil
	})))
	defer srv.Close()
	client := NewHTTPClient(srv.Client())
	back := 0
	for i := 0; i < 20; i++ {
		data := pooledEnvelope(t, "v")
		if err := client.SendEncoded(context.Background(), srv.URL, data); err != nil {
			t.Fatal(err)
		}
		if drawnBack(data) {
			back++
		}
	}
	if back == 0 {
		t.Fatal("no delivered buffer came back to the pool in 20 sends")
	}

	// A transport that answers before it reads the body, and reads it later.
	var kept io.ReadCloser
	late := NewHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		kept = r.Body
		return &http.Response{StatusCode: http.StatusAccepted, Body: http.NoBody, Request: r}, nil
	})})
	if err := late.SendEncoded(context.Background(), "http://peer.invalid/", pooledEnvelope(t, "v")); err != nil {
		t.Fatal(err)
	}
	if n, err := kept.Read(make([]byte, 64)); n != 0 || err != io.EOF {
		t.Fatalf("a read after the send returned = (%d, %v), want (0, EOF)", n, err)
	}
}

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHTTPClientFailedSendKeepsBuffer: a send that is not delivered leaves
// its buffer with the caller, intact and out of the pool, to retry with.
func TestHTTPClientFailedSendKeepsBuffer(t *testing.T) {
	srv := httptest.NewServer(NewHTTPServer(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, NewFault(CodeReceiver, "down")
	})))
	defer srv.Close()
	client := NewHTTPClient(srv.Client())
	for i := 0; i < 20; i++ {
		data := pooledEnvelope(t, "v"+strconv.Itoa(i))
		want := string(data)
		if err := client.SendEncoded(context.Background(), srv.URL, data); err == nil {
			t.Fatal("a send the server faulted succeeded")
		}
		if drawnBack(data) {
			t.Fatalf("send %d: the failed send's buffer went back to the pool", i)
		}
		if string(data) != want {
			t.Fatalf("send %d: the failed send's buffer changed:\n%s\nwant\n%s", i, data, want)
		}
	}
}

// TestHTTPClientConcurrentUse: goroutines sharing one client send pooled
// buffers to a few servers at once, and every server receives each body as
// it was written — its checksum matches — however the buffers recycle
// between the senders. Run it under -race.
func TestHTTPClientConcurrentUse(t *testing.T) {
	const servers, senders, each = 3, 8, 40
	var bad, served atomic.Int32
	urls := make([]string, servers)
	for s := range urls {
		srv := httptest.NewServer(NewHTTPServer(HandlerFunc(func(_ context.Context, req *Request) (*Envelope, error) {
			var in testBody
			if err := req.Envelope.DecodeBody(&in); err != nil {
				bad.Add(1)
				return nil, err
			}
			sum, data, ok := strings.Cut(in.Value, ":")
			if !ok || sum != strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(data))), 10) {
				bad.Add(1)
			}
			served.Add(1)
			return nil, nil
		})))
		defer srv.Close()
		urls[s] = srv.URL
	}
	client := NewHTTPClient(&http.Client{Timeout: 10 * time.Second})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				data := strings.Repeat(strconv.Itoa(g*each+i), 1+i%50)
				value := strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(data))), 10) + ":" + data
				if err := client.SendEncoded(context.Background(), urls[(g+i)%servers], pooledEnvelope(t, value)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if served.Load() != senders*each || bad.Load() != 0 {
		t.Fatalf("served %d of %d, %d with a body not their own", served.Load(), senders*each, bad.Load())
	}
}

// TestHTTPClientURLCacheIsBounded: the parsed-URL cache holds at most
// maxCachedURLs addresses, however many distinct ones a client is asked to
// post to, and still hands each back parsed.
func TestHTTPClientURLCacheIsBounded(t *testing.T) {
	var c urlCache
	for i := 0; i < 3*maxCachedURLs; i++ {
		addr := "http://peer" + strconv.Itoa(i) + ".invalid:8080/"
		u, err := c.get(addr)
		if err != nil {
			t.Fatal(err)
		}
		if u.String() != addr {
			t.Fatalf("cached %q for %q", u, addr)
		}
		if n := len(c.m); n > maxCachedURLs {
			t.Fatalf("%d addresses cached, cap %d", n, maxCachedURLs)
		}
	}
	u, err := c.get("http://host:/x")
	if err != nil {
		t.Fatal(err)
	}
	if u.Host != "host" {
		t.Fatalf("empty port: host %q, want host", u.Host)
	}
}

// TestHTTPPostHeaderSet: a POST's head, as a raw listener reads it off the
// wire, carries exactly Host, Content-Length, Content-Type and
// Accept-Encoding: identity — no User-Agent, and no request for gzip — for
// SendEncoded and Call alike, and Call still decodes the reply.
func TestHTTPPostHeaderSet(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reply := NewEnvelope()
	if err := reply.SetBody(testBody{Value: "answer"}); err != nil {
		t.Fatal(err)
	}
	replyBytes, err := reply.Encode()
	if err != nil {
		t.Fatal(err)
	}
	answers := []string{
		"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: " + ContentType + "; charset=utf-8\r\nContent-Length: " +
			strconv.Itoa(len(replyBytes)) + "\r\n\r\n" + string(replyBytes),
	}
	heads := make(chan []string, len(answers))
	go func() {
		defer close(heads)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, answer := range answers {
			var head []string
			length := 0
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if line == "\r\n" {
					break
				}
				head = append(head, line)
				if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
					length, _ = strconv.Atoi(strings.TrimSpace(v))
				}
			}
			if _, err := io.ReadFull(br, make([]byte, length)); err != nil {
				return
			}
			heads <- head
			if _, err := io.WriteString(conn, answer); err != nil {
				return
			}
		}
	}()

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := NewHTTPClient(&http.Client{Transport: transport, Timeout: 5 * time.Second})
	addr := ln.Addr().String()
	data := pooledEnvelope(t, "head")
	want := func(length int) []string {
		return []string{
			"POST /soap HTTP/1.1\r\n",
			"Host: " + addr + "\r\n",
			"Content-Length: " + strconv.Itoa(length) + "\r\n",
			"Accept-Encoding: identity\r\n",
			"Content-Type: " + ContentType + "; charset=utf-8\r\n",
		}
	}
	check := func(what string, head []string, want []string) {
		t.Helper()
		if len(head) == 0 {
			t.Fatalf("%s: the listener read no request head", what)
		}
		slices.Sort(head[1:])
		slices.Sort(want[1:])
		if !slices.Equal(head, want) {
			t.Fatalf("%s head:\n%q\nwant\n%q", what, head, want)
		}
	}
	sendWant := want(len(data))
	if err := client.SendEncoded(context.Background(), "http://"+addr+"/soap", data); err != nil {
		t.Fatal(err)
	}
	check("SendEncoded", <-heads, sendWant)

	env := NewEnvelope()
	if err := env.SetBody(testBody{Value: "question"}); err != nil {
		t.Fatal(err)
	}
	callBytes, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Call(context.Background(), "http://"+addr+"/soap", env)
	if err != nil {
		t.Fatal(err)
	}
	check("Call", <-heads, want(len(callBytes)))
	var got testBody
	if err := resp.DecodeBody(&got); err != nil || got.Value != "answer" {
		t.Fatalf("Call's reply = %+v, %v; want Value answer", got, err)
	}
}

// closeRecorder is a request body that records whether it was closed.
type closeRecorder struct {
	io.Reader
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

// TestHTTPServerClosesBodyReadInFull: the server closes a request body it
// has read to its end, before the handler runs, so net/http has nothing to
// discard after it; a body it could not read in full — short of its declared
// length, or failing mid-read — it leaves open, so that closing never waits
// on a peer that has stopped sending.
func TestHTTPServerClosesBodyReadInFull(t *testing.T) {
	env := NewEnvelope()
	if err := env.SetBody(testBody{Value: "v"}); err != nil {
		t.Fatal(err)
	}
	full, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		body       io.Reader
		length     int64
		wantClosed bool
	}{
		{"declared", bytes.NewReader(full), int64(len(full)), true},
		{"undeclared", bytes.NewReader(full), -1, true},
		{"short", strings.NewReader("short"), 100, false},
		{"short-of-large-declared", bytes.NewReader(full), int64(len(full)) + firstReadBytes, false},
		{"read-error", errReader{errors.New("conn reset")}, -1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := &closeRecorder{Reader: c.body}
			req := httptest.NewRequest(http.MethodPost, "/", body)
			req.ContentLength = c.length
			var closedInHandler bool
			rec := httptest.NewRecorder()
			NewHTTPServer(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
				closedInHandler = body.closed
				return nil, nil
			})).ServeHTTP(rec, req)
			if body.closed != c.wantClosed {
				t.Fatalf("body closed = %v, want %v (status %d)", body.closed, c.wantClosed, rec.Code)
			}
			if c.wantClosed && (!closedInHandler || rec.Code != http.StatusAccepted) {
				t.Fatalf("closed before the handler = %v, status %d; want true, 202", closedInHandler, rec.Code)
			}
		})
	}
}
