package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// MaxEnvelopeBytes is the wire-level cap on a single SOAP envelope: the
// HTTP binding rejects larger request bodies with a Sender fault before
// reading them in, and Decode refuses larger buffers on every binding
// (defense against unbounded reads; gossip notifications are small).
const MaxEnvelopeBytes = 8 << 20

// maxEnvelopeBytes is the package-internal shorthand for the cap.
const maxEnvelopeBytes = MaxEnvelopeBytes

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
// shared), so a handler that keeps its request must Clone it.
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

// readRequestBody reads the request body into a pooled buffer: one
// exactly-sized read when Content-Length is declared, a doubling read
// through the pool otherwise. A body shorter than its declared length
// surfaces as io.ErrUnexpectedEOF (or io.EOF when empty); an undeclared
// body still producing bytes at maxEnvelopeBytes surfaces as
// errBodyOversize — neither ever blocks past the bytes actually sent or
// reads past the cap. The caller recycles with putBytes.
func readRequestBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= maxEnvelopeBytes {
		buf := getBytes(int(n))[:n]
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			putBytes(buf)
			return nil, err
		}
		return buf, nil
	}
	// Views are clamped to the cap so the doubling can never read past
	// maxEnvelopeBytes, whatever capacity the pool handed back.
	buf := getBytes(4096)
	buf = buf[:min(cap(buf), maxEnvelopeBytes)]
	total := 0
	for {
		if total == len(buf) {
			if total >= maxEnvelopeBytes {
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
			bigger := getBytes(2 * len(buf))
			bigger = bigger[:min(cap(bigger), maxEnvelopeBytes)]
			copy(bigger, buf[:total])
			putBytes(buf)
			buf = bigger
		}
		n, err := r.Body.Read(buf[total:])
		total += n
		if err == io.EOF {
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

// HTTPClient is a SOAP 1.2 client over net/http.
type HTTPClient struct {
	hc *http.Client
}

var _ Caller = (*HTTPClient)(nil)

// NewHTTPClient wraps hc (nil means http.DefaultClient).
func NewHTTPClient(hc *http.Client) *HTTPClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &HTTPClient{hc: hc}
}

// Call posts the envelope to the endpoint and decodes the response envelope.
// A SOAP fault in the response is returned as a *Fault error.
func (c *HTTPClient) Call(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	respBody, status, err := c.post(ctx, to, env)
	if err != nil {
		return nil, err
	}
	if status == http.StatusAccepted || len(respBody) == 0 {
		return nil, nil
	}
	resp, err := Decode(respBody)
	if err != nil {
		return nil, fmt.Errorf("call %s: %w", to, err)
	}
	if f := FaultFrom(resp); f != nil {
		return nil, f
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("call %s: unexpected status %d", to, status)
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
// encode of the fan-out hot path.
func (c *HTTPClient) SendEncoded(ctx context.Context, to string, data []byte) error {
	respBody, status, err := c.postBytes(ctx, to, data)
	if err != nil {
		return err
	}
	if status >= 400 {
		if resp, derr := Decode(respBody); derr == nil {
			if f := FaultFrom(resp); f != nil {
				return f
			}
		}
		return fmt.Errorf("send %s: unexpected status %d", to, status)
	}
	return nil
}

func (c *HTTPClient) post(ctx context.Context, to string, env *Envelope) ([]byte, int, error) {
	data, err := env.Encode()
	if err != nil {
		return nil, 0, err
	}
	return c.postBytes(ctx, to, data)
}

func (c *HTTPClient) postBytes(ctx context.Context, to string, data []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, to, bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("post %s: %w", to, err)
	}
	req.Header.Set("Content-Type", ContentType+"; charset=utf-8")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("post %s: %w", to, err)
	}
	defer resp.Body.Close()
	// Responses escape to the caller (the decoded envelope aliases them),
	// so they are not pooled — but a declared Content-Length still buys an
	// exactly-sized single read instead of ReadAll's doubling copies.
	if n := resp.ContentLength; n >= 0 && n <= maxEnvelopeBytes {
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, 0, fmt.Errorf("read response from %s: %w", to, err)
		}
		return body, resp.StatusCode, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxEnvelopeBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("read response from %s: %w", to, err)
	}
	return body, resp.StatusCode, nil
}

// ErrUnknownEndpoint reports a send to an address not present on the bus.
var ErrUnknownEndpoint = errors.New("soap: unknown endpoint")
