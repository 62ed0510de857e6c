package soap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MaxEnvelopeBytes is the wire-level cap on a single SOAP envelope: the
// HTTP binding rejects larger request bodies with a Sender fault before
// reading them in, and Decode refuses larger buffers on every binding
// (defense against unbounded reads; gossip notifications are small).
const MaxEnvelopeBytes = 8 << 20

// maxEnvelopeBytes is the package-internal shorthand for the cap.
const maxEnvelopeBytes = MaxEnvelopeBytes

// wireTimeout is the HTTP binding's one rule for both of its ends: a peer
// that stalls mid-request holds a connection no longer than a sender waits
// for one. Serve wants a request whole, body included, within wireTimeout of
// its first byte, and an HTTPClient made with no Timeout waits as long for a
// POST; a handler still running past it finds its request's context
// canceled, as it would had the sender hung up.
const wireTimeout = 10 * time.Second

// Serve serves h on ln with the HTTP binding's bounds until ctx ends: a
// request's head must arrive within 5 s and the whole request within 10 s,
// the longest an HTTPClient without a Timeout of its own waits for a POST,
// and a kept-alive connection idle for 2 min is closed. When ctx ends, Serve
// stops accepting, waits up to 3 s for the requests in flight, closes every
// connection still open and returns nil. An error that stops serving first
// is returned at once, the listener closed. h is typically an HTTPServer,
// possibly with other routes mounted beside it.
//
// A connection a client opened but never sent a request on — a spare one an
// http.Transport dialed — is closed when ctx ends, and so is one opened
// after: net/http would count it as busy, as if its first request were on
// the way, and wait out the grace for it.
func Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	var fresh freshConns
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       wireTimeout,
		// Longer than net/http's default client keeps a connection idle
		// (90 s), so a client never reuses one the server has just closed.
		IdleTimeout: 2 * time.Minute,
		ConnState:   fresh.track,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		_ = srv.Close()
		return err
	case <-ctx.Done():
	}
	fresh.closeAll()
	sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx) // past the grace, Close ends what is left
	_ = srv.Close()
	<-served
	return nil
}

// freshConns tracks a server's connections that have not begun a request
// (http.StateNew), so a shutdown can close them.
type freshConns struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
}

// track is the server's ConnState hook: it keeps a new connection until its
// first request begins, and closes one that arrives once closeAll has run.
func (f *freshConns) track(c net.Conn, s http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case s != http.StateNew:
		delete(f.conns, c)
	case f.closing:
		_ = c.Close()
	default:
		if f.conns == nil {
			f.conns = make(map[net.Conn]struct{})
		}
		f.conns[c] = struct{}{}
	}
}

// closeAll closes every connection that has not begun a request, and every
// one that arrives after.
func (f *freshConns) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closing = true
	for c := range f.conns {
		_ = c.Close()
	}
}

// HTTPServer adapts a Handler to the SOAP 1.2 HTTP binding.
type HTTPServer struct {
	handler Handler
}

var _ http.Handler = (*HTTPServer)(nil)

// NewHTTPServer wraps h for serving over HTTP.
func NewHTTPServer(h Handler) *HTTPServer {
	return &HTTPServer{handler: h}
}

// ServeHTTP implements the SOAP 1.2 request-response and one-way MEPs:
// a nil handler response yields 202 Accepted, a fault yields the status
// writeFault maps it to. Misbehaving senders — an oversized (declared or
// actual) body, a body shorter than its Content-Length, a mid-body read
// error — are rejected with a Sender fault and a reject counter bump
// before any decode work. The request body is read into a pooled buffer
// that the decoded envelope aliases for the duration of the exchange, and a
// scanned request is drawn from its pool; both go back once the handler has
// returned and its response has been written (copying whatever blocks it
// shared), so a handler that keeps its request must Clone it. A body read in
// full is closed before the handler runs; one that failed to read is left
// open, so closing it never waits on a stalled peer.
func (s *HTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint requires POST", http.StatusMethodNotAllowed)
		return
	}
	if r.ContentLength > maxEnvelopeBytes {
		countInboundReject(rejectOversize)
		writeFault(w, NewFault(CodeSender, fmt.Sprintf(
			"declared body of %d bytes exceeds the %d-byte envelope cap", r.ContentLength, maxEnvelopeBytes)))
		return
	}
	data, err := readRequestBody(r)
	if err != nil {
		switch {
		case errors.Is(err, errBodyOversize):
			countInboundReject(rejectOversize)
		case errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF):
			countInboundReject(rejectTruncated)
		default:
			countInboundReject(rejectRead)
		}
		writeFault(w, NewFault(CodeSender, "read request: "+err.Error()))
		return
	}
	// The body is read to its end, so closing it costs nothing; an unclosed
	// one has net/http copy whatever follows to io.Discard after the handler.
	_ = r.Body.Close()
	req, rec, err := decodeRequest(data, true)
	if err != nil {
		putBytes(data)
		writeFault(w, NewFault(CodeSender, err.Error()))
		return
	}
	req.Remote = r.RemoteAddr
	resp, err := s.handler.HandleSOAP(r.Context(), req)
	writeResponse(w, resp, err)
	// The response is on the wire, so nothing refers to the request or its
	// bytes any more. A handler that panics skips this: its request and
	// buffer are left to the GC.
	rec.release()
	putBytes(data)
}

// writeResponse writes a handler's outcome: a fault, 202 Accepted for a
// one-way exchange, or the response envelope.
func writeResponse(w http.ResponseWriter, resp *Envelope, err error) {
	if err != nil {
		writeFault(w, AsFault(err))
		return
	}
	if resp == nil {
		w.WriteHeader(http.StatusAccepted)
		return
	}
	out, err := resp.Encode()
	if err != nil {
		writeFault(w, NewFault(CodeReceiver, err.Error()))
		return
	}
	w.Header().Set("Content-Type", ContentType+"; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// errBodyOversize reports a chunked request body that kept producing bytes
// past the envelope cap.
var errBodyOversize = errors.New("request body exceeds the envelope size cap")

// firstReadBytes is the most of a request body's buffer taken before its
// bytes arrive: the first buffer is the declared length up to this, and it
// doubles as bytes come in. A peer that declares the envelope cap and then
// stalls holds no more than this, plus what it has sent; every body up to
// it, which is every gossip message short of a membership view of about
// 1,800 members, is read into one buffer.
const firstReadBytes = 64 << 10

// readRequestBody reads the request body into a pooled buffer that starts at
// the declared Content-Length, or firstReadBytes if less, and doubles as
// bytes arrive, never past the declared length or, with none,
// maxEnvelopeBytes. A body shorter than its declared length surfaces as
// io.ErrUnexpectedEOF (or io.EOF when empty), as io.ReadFull reports it; an
// undeclared body still producing bytes at maxEnvelopeBytes surfaces as
// errBodyOversize — neither ever blocks past the bytes actually sent or
// reads past the cap. The caller recycles with putBytes.
func readRequestBody(r *http.Request) ([]byte, error) {
	declared := r.ContentLength >= 0
	limit := maxEnvelopeBytes
	if declared {
		limit = int(r.ContentLength) // ServeHTTP has refused a declared length past the cap
	}
	// Views are clamped to the limit so the read can never pass it, whatever
	// capacity the pool handed back.
	buf := getBytes(min(limit, firstReadBytes))
	buf = buf[:min(cap(buf), limit)]
	total := 0
	for {
		if total == len(buf) {
			if total >= limit {
				if declared {
					return buf, nil
				}
				// At the cap: the body is oversized unless it ends here.
				var probe [1]byte
				n, err := r.Body.Read(probe[:])
				if n == 0 && err == io.EOF {
					return buf[:total], nil
				}
				putBytes(buf)
				if n > 0 || err == nil {
					return nil, errBodyOversize
				}
				return nil, err
			}
			bigger := getBytes(min(2*len(buf), limit))
			bigger = bigger[:min(cap(bigger), limit)]
			copy(bigger, buf[:total])
			putBytes(buf)
			buf = bigger
		}
		n, err := r.Body.Read(buf[total:])
		total += n
		if err == io.EOF {
			if declared && total < limit {
				err = io.ErrUnexpectedEOF
				if total == 0 {
					err = io.EOF
				}
				putBytes(buf)
				return nil, err
			}
			return buf[:total], nil
		}
		if err != nil {
			putBytes(buf)
			return nil, err
		}
	}
}

// writeFault serializes f and maps it onto the HTTP binding's status
// space: a fault carrying a retry-after hint is 503 with the hint
// mirrored as a Retry-After header (whole seconds, rounded up), a Sender
// fault is 400, everything else 500.
func writeFault(w http.ResponseWriter, f *Fault) {
	env, err := FaultEnvelope(f)
	if err != nil {
		http.Error(w, f.Error(), http.StatusInternalServerError)
		return
	}
	out, err := env.Encode()
	if err != nil {
		http.Error(w, f.Error(), http.StatusInternalServerError)
		return
	}
	status := http.StatusInternalServerError
	if after, ok := f.RetryAfter(); ok {
		status = http.StatusServiceUnavailable
		secs := int64((after + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	} else if f.Code.Value == CodeSender {
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", ContentType+"; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

// Caller sends SOAP messages to endpoint addresses. It is implemented by the
// HTTP client and by the in-memory bus, so role code is binding-agnostic.
// Every binding takes bytes through the EncodedSender it embeds: the
// messages the stack originates and forwards are written into pooled
// buffers and handed to SendEncoded, and Send is the envelope's way onto
// the same wire.
type Caller interface {
	EncodedSender
	// Call performs a request-response exchange.
	Call(ctx context.Context, to string, env *Envelope) (*Envelope, error)
	// Send performs a one-way exchange of an envelope already built.
	Send(ctx context.Context, to string, env *Envelope) error
}

// HTTPClient is a SOAP 1.2 client over net/http. Every POST goes straight
// through the Transport of the http.Client it was made from, by RoundTrip.
type HTTPClient struct {
	rt      http.RoundTripper
	timeout time.Duration
	urls    urlCache
}

var _ Caller = (*HTTPClient)(nil)

// NewHTTPClient wraps hc (nil means http.DefaultClient). Of hc it uses only
// the Transport (http.DefaultTransport when nil) and the Timeout: redirects
// are not followed — a 3xx answer is an error, as is every answer that is
// not 2xx — no cookie jar is kept, and Timeout bounds each request unless
// the context's deadline is earlier. A Timeout of 0 or less (hc nil
// included) is Serve's wire bound, 10 s: a sender waits for a peer no longer
// than the peer's server lets a request take.
//
// A POST carries Host, Content-Length, Content-Type (application/soap+xml;
// charset=utf-8) and Accept-Encoding: identity, and no User-Agent. A
// compressed answer is neither requested nor decoded: the SOAP binding's
// answers are small, and its server never compresses. With no User-Agent the
// POSTs are not what RFC 9110 recommends a user agent send, and an
// intermediary that refuses requests lacking one (some reverse proxies and
// WAF rule sets do) refuses every POST: peers are to be reached directly or
// through an intermediary that does not.
func NewHTTPClient(hc *http.Client) *HTTPClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	rt := hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	timeout := hc.Timeout
	if timeout <= 0 {
		timeout = wireTimeout
	}
	return &HTTPClient{rt: rt, timeout: timeout}
}

// Call posts the envelope to the endpoint and decodes the response envelope;
// a 2xx answer without a body (202 for a one-way handler) returns nil. A SOAP
// fault in the response is returned as a *Fault error, and any other answer
// that is not 2xx as an error naming its status.
func (c *HTTPClient) Call(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	data, err := env.Encode()
	if err != nil {
		return nil, err
	}
	status, respBody, err := c.post(ctx, to, newPostBody(data), true)
	if err != nil {
		return nil, err
	}
	if !is2xx(status) {
		return nil, statusError("call", to, status, respBody)
	}
	if len(respBody) == 0 {
		return nil, nil
	}
	resp, err := Decode(respBody)
	if err != nil {
		return nil, fmt.Errorf("call %s: %w", to, err)
	}
	if f := FaultFrom(resp); f != nil {
		return nil, f
	}
	return resp, nil
}

// Send posts the envelope and discards any response body.
func (c *HTTPClient) Send(ctx context.Context, to string, env *Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return c.SendEncoded(ctx, to, data)
}

// SendEncoded posts an already-serialized envelope, skipping the redundant
// encode of the fan-out hot path. Only a 2xx answer is delivery: a fault is
// returned as a *Fault error, any other status as an error naming it. Once
// the answer is 2xx, data goes back to the wire buffer pool, as
// EncodedSender allows; on an error it stays with the caller, intact.
func (c *HTTPClient) SendEncoded(ctx context.Context, to string, data []byte) error {
	b := newPostBody(data)
	status, respBody, err := c.post(ctx, to, b, false)
	b.seal()
	if err != nil {
		return err
	}
	if !is2xx(status) {
		return statusError("send", to, status, respBody)
	}
	putBytes(data)
	return nil
}

// is2xx reports whether an HTTP status means the exchange succeeded.
func is2xx(status int) bool { return status/100 == 2 }

// statusError is the error of an answer that is not 2xx: the SOAP fault its
// body carries, or else one naming the status.
func statusError(op, to string, status int, body []byte) error {
	if resp, err := Decode(body); err == nil {
		if f := FaultFrom(resp); f != nil {
			return f
		}
	}
	return fmt.Errorf("%s %s: unexpected status %d", op, to, status)
}

// postHeader is every POST's header, shared by all of them: a RoundTripper
// does not modify its request, and nothing here writes it after init. Beside
// the content type it carries only what keeps net/http from adding lines
// neither end reads: Accept-Encoding: identity, so the Transport neither asks
// for gzip (through a per-request header map) nor wraps the answer in a
// decompressor, and an empty User-Agent, which net/http writes as no line at
// all rather than its default.
var postHeader = http.Header{
	"Content-Type":    {ContentType + "; charset=utf-8"},
	"Accept-Encoding": {"identity"},
	"User-Agent":      {""},
}

// post sends b to the address through the transport and returns the
// answer's status. The body of the answer is read and returned when keep is
// set or the status is not 2xx (it may carry a fault); otherwise it is
// drained unread, so the connection goes back to the transport's idle pool.
//
// The client's timeout is a context of its own only when ctx has no earlier
// deadline: an attempt of the delivery plane on the wall clock reports its
// own, and a second timer-backed context on top of it would never fire first.
func (c *HTTPClient) post(ctx context.Context, to string, b *postBody, keep bool) (int, []byte, error) {
	u, err := c.urls.get(to)
	if err != nil {
		return 0, nil, fmt.Errorf("post %s: %w", to, err)
	}
	if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > c.timeout {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Header:        postHeader,
		Body:          &b.first,
		GetBody:       b.reopen,
		ContentLength: int64(len(b.data)),
		Host:          u.Host,
	}).WithContext(ctx)
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return 0, nil, fmt.Errorf("post %s: %w", to, err)
	}
	defer resp.Body.Close()
	if !keep && is2xx(resp.StatusCode) {
		if resp.ContentLength != 0 {
			if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, maxEnvelopeBytes)); err != nil {
				return 0, nil, fmt.Errorf("read response from %s: %w", to, err)
			}
		}
		return resp.StatusCode, nil, nil
	}
	// Responses escape to the caller (the decoded envelope aliases them),
	// so they are not pooled — but a declared Content-Length still buys an
	// exactly-sized single read instead of ReadAll's doubling copies.
	if n := resp.ContentLength; n >= 0 && n <= maxEnvelopeBytes {
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return 0, nil, fmt.Errorf("read response from %s: %w", to, err)
		}
		return resp.StatusCode, body, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxEnvelopeBytes))
	if err != nil {
		return 0, nil, fmt.Errorf("read response from %s: %w", to, err)
	}
	return resp.StatusCode, body, nil
}

// postBody is the request body of one POST: the wire bytes, read by the
// transport through readings that a seal ends. A RoundTripper may go on
// reading a request body after RoundTrip has returned — net/http's HTTP/1
// write loop reads past the declared length to check for extra bytes, and
// closes the body from its own goroutine — so the client seals the body
// before it takes the bytes back. From then on every reading reports io.EOF
// and none touches data; reads and the seal share one mutex, so a read in
// progress finishes first.
type postBody struct {
	mu     sync.Mutex
	data   []byte
	sealed bool
	first  postReader // the request's Body
}

// postReader is one reading of a postBody from the start: the request's
// own, or one the transport asked GetBody for, to resend the request on a
// fresh connection. Close leaves the bytes alone; only the seal ends reading.
type postReader struct {
	b   *postBody
	off int
}

func newPostBody(data []byte) *postBody {
	b := &postBody{data: data}
	b.first.b = b
	return b
}

// reopen is the request's GetBody.
func (b *postBody) reopen() (io.ReadCloser, error) { return &postReader{b: b}, nil }

// seal ends every reading of b.
func (b *postBody) seal() {
	b.mu.Lock()
	b.sealed = true
	b.mu.Unlock()
}

func (r *postReader) Read(p []byte) (int, error) {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed || r.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[r.off:])
	r.off += n
	return n, nil
}

func (r *postReader) Close() error { return nil }

// maxCachedURLs bounds a client's parsed-URL cache. Addresses can come from
// body fields a peer writes, so a full cache is emptied, not grown.
const maxCachedURLs = 1024

// urlCache maps an address to its parsed URL, which every request to it
// shares (a RoundTripper does not modify its request).
type urlCache struct {
	mu sync.RWMutex
	m  map[string]*url.URL
}

// get returns the parsed URL of addr, with an empty port removed from its
// host as http.NewRequest removes it.
func (c *urlCache) get(addr string) (*url.URL, error) {
	c.mu.RLock()
	u, ok := c.m[addr]
	c.mu.RUnlock()
	if ok {
		return u, nil
	}
	u, err := url.Parse(addr)
	if err != nil {
		return nil, err
	}
	u.Host = strings.TrimSuffix(u.Host, ":")
	c.mu.Lock()
	if c.m == nil || len(c.m) >= maxCachedURLs {
		c.m = make(map[string]*url.URL)
	}
	c.m[strings.Clone(addr)] = u
	c.mu.Unlock()
	return u, nil
}

// ErrUnknownEndpoint reports a send to an address not present on the bus.
var ErrUnknownEndpoint = errors.New("soap: unknown endpoint")
