package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"wsgossip/internal/metrics"
	"wsgossip/internal/wsa"
)

// Inbound hardening: a misbehaving sender — oversized, truncated, or
// garbage bytes — must always get a clean Sender fault and a counter
// bump, never a hang, a partial read, or an unclassified 500.

// TestHostilePeerCannotGrowInternTable: a peer that invents a fresh body
// namespace and action for every message fills the intern table to its cap
// and no further, never gets an over-long name into it, and cannot push the
// protocol's own names out. Every name it sent still reads back exactly.
func TestHostilePeerCannotGrowInternTable(t *testing.T) {
	saved := names.m.Load()
	defer names.m.Store(saved) // the table is process-wide: leave it as found

	bus := NewMemBus()
	var got struct{ action, space string }
	bus.Register("mem://victim", HandlerFunc(func(_ context.Context, req *Request) (*Envelope, error) {
		got.action, got.space = req.Action(), req.Envelope.BodyName().Space
		return nil, nil
	}))
	long := "urn:" + strings.Repeat("x", maxInternLen)
	send := func(action, space string) {
		t.Helper()
		body := fmt.Sprintf(`<Envelope xmlns="%s"><Header><Action xmlns="%s">%s</Action></Header>`+
			`<Body><Ping xmlns="%s"/></Body></Envelope>`, Namespace, wsa.Namespace, action, space)
		if err := bus.SendEncoded(context.Background(), "mem://victim", []byte(body)); err != nil {
			t.Fatal(err)
		}
		if got.action != action || got.space != space {
			t.Fatalf("delivered action %q, namespace %q; sent %q, %q", got.action, got.space, action, space)
		}
	}
	send(long, long) // while the table still has room
	for i := 0; i < 10000; i++ {
		send(fmt.Sprintf("urn:hostile:action:%d", i), fmt.Sprintf("urn:hostile:ns:%d", i))
	}
	table := *names.m.Load()
	if len(table) != maxInternNames {
		t.Fatalf("intern table holds %d names after the flood, cap %d", len(table), maxInternNames)
	}
	if _, ok := table[long]; ok {
		t.Fatalf("a %d-byte name was interned (cap %d bytes)", len(long), maxInternLen)
	}
	for _, name := range []string{Namespace, wsa.Namespace, "Action", "Gossip"} {
		if _, ok := table[name]; !ok {
			t.Fatalf("protocol name %q lost from the table", name)
		}
	}
}

func postRecorded(t *testing.T, body string, contentLength int64) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	NewHTTPServer(echoHandler()).ServeHTTP(rec, req)
	return rec
}

func faultFromRecorder(t *testing.T, rec *httptest.ResponseRecorder) *Fault {
	t.Helper()
	env, err := Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("response body is not an envelope: %v", err)
	}
	f := FaultFrom(env)
	if f == nil {
		t.Fatalf("response is not a fault: %s", rec.Body.String())
	}
	return f
}

func TestHTTPRejectsDeclaredOversize(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	rec := postRecorded(t, "irrelevant", maxEnvelopeBytes+1)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if f := faultFromRecorder(t, rec); f.Code.Value != CodeSender {
		t.Fatalf("fault code = %q, want Sender", f.Code.Value)
	}
	if got := reg.CounterVec("soap_inbound_rejects_total", "reason").With("oversize").Value(); got != 1 {
		t.Fatalf("oversize rejects = %d, want 1", got)
	}
}

func TestHTTPRejectsTruncatedBody(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	// Declared length of 100 bytes, body ends after 5: the exact read must
	// surface the short body as a Sender fault, not block for more bytes.
	rec := postRecorded(t, "short", 100)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if f := faultFromRecorder(t, rec); f.Code.Value != CodeSender {
		t.Fatalf("fault code = %q, want Sender", f.Code.Value)
	}
	if got := reg.CounterVec("soap_inbound_rejects_total", "reason").With("truncated").Value(); got != 1 {
		t.Fatalf("truncated rejects = %d, want 1", got)
	}
}

func TestHTTPRejectsUndeclaredOversize(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	body := bytes.NewReader(make([]byte, maxEnvelopeBytes+4096))
	req := httptest.NewRequest(http.MethodPost, "/", body)
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	NewHTTPServer(echoHandler()).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if got := reg.CounterVec("soap_inbound_rejects_total", "reason").With("oversize").Value(); got != 1 {
		t.Fatalf("oversize rejects = %d, want 1", got)
	}
}

func TestHTTPReadErrorReject(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	req := httptest.NewRequest(http.MethodPost, "/", errReader{errors.New("conn reset")})
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	NewHTTPServer(echoHandler()).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if got := reg.CounterVec("soap_inbound_rejects_total", "reason").With("read").Value(); got != 1 {
		t.Fatalf("read rejects = %d, want 1", got)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func TestDecodeOversize(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	if _, err := Decode(make([]byte, maxEnvelopeBytes+1)); err == nil {
		t.Fatal("oversized envelope decoded")
	}
	if got := reg.CounterVec("soap_decode_errors_total", "reason").With("oversize").Value(); got != 1 {
		t.Fatalf("oversize decode errors = %d, want 1", got)
	}
}

func TestDecodeMalformedCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	for _, data := range [][]byte{
		[]byte("not xml at all"),
		[]byte(`<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope"><s:Body>`), // truncated mid-document
	} {
		if _, err := Decode(data); err == nil {
			t.Fatalf("malformed input decoded: %q", data)
		}
	}
	if got := reg.CounterVec("soap_decode_errors_total", "reason").With("malformed").Value(); got != 2 {
		t.Fatalf("malformed decode errors = %d, want 2", got)
	}
}

// Overload shedding contract over the HTTP binding: a fault carrying a
// retry-after hint maps to 503 + Retry-After on the server and comes back
// out of the client as a *Fault whose hint survives the wire.

func TestHTTPSheddingStatusAndHeader(t *testing.T) {
	h := HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, NewOverloadedFault("admission queue full", 1500*time.Millisecond)
	})
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(mustEncodeEnv(t)))
	rec := httptest.NewRecorder()
	NewHTTPServer(h).ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (1500ms rounded up)", got, "2")
	}
	f := faultFromRecorder(t, rec)
	after, ok := f.RetryAfter()
	if !ok || after != 1500*time.Millisecond {
		t.Fatalf("decoded hint = (%v, %v), want (1.5s, true)", after, ok)
	}
}

func mustEncodeEnv(t *testing.T) string {
	t.Helper()
	env := NewEnvelope()
	if err := env.SetBody(testBody{Value: "v"}); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHTTPClientSeesRetryAfterHint(t *testing.T) {
	srv := httptest.NewServer(NewHTTPServer(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, NewOverloadedFault("shedding", 250*time.Millisecond)
	})))
	defer srv.Close()
	client := NewHTTPClient(srv.Client())

	env := newCallEnv(t, srv.URL, "urn:x", testBody{Value: "v"})
	err := client.Send(context.Background(), srv.URL, env)
	if err == nil {
		t.Fatal("shed send succeeded")
	}
	after, ok := RetryAfterHint(err)
	if !ok || after != 250*time.Millisecond {
		t.Fatalf("hint = (%v, %v), want (250ms, true) from %v", after, ok, err)
	}
	if IsSenderFault(err) {
		t.Fatal("overload fault classified as sender fault")
	}
}

func TestHTTPSenderFaultIs400(t *testing.T) {
	srv := httptest.NewServer(NewHTTPServer(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, NewFault(CodeSender, "bad payload")
	})))
	defer srv.Close()
	client := NewHTTPClient(srv.Client())

	env := newCallEnv(t, srv.URL, "urn:x", testBody{Value: "v"})
	err := client.Send(context.Background(), srv.URL, env)
	if !IsSenderFault(err) {
		t.Fatalf("err = %v, want sender fault", err)
	}
	if err := client.Send(context.Background(), srv.URL, env); err == nil {
		t.Fatal("second send of the same bytes succeeded")
	}
	// And the raw status the binding chose:
	resp, err := srv.Client().Post(srv.URL, ContentType, strings.NewReader(mustEncodeEnv(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// The rejects must also land when the fault envelope itself round-trips
// through Decode on the sender side (client fault extraction path).
func TestHTTPServerRejectCountsAreDistinct(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	postRecorded(t, "x", maxEnvelopeBytes+1) // oversize
	postRecorded(t, "x", 50)                 // truncated
	joined := reg.Snapshot()
	for _, want := range []string{
		`soap_inbound_rejects_total{reason="oversize"}=1`,
		`soap_inbound_rejects_total{reason="truncated"}=1`,
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("snapshot missing %s:\n%s", want, joined)
		}
	}
}

// stallingBody yields a few bytes and then fails, as a connection does whose
// peer sent a head declaring a large body and stopped.
type stallingBody struct{ sent bool }

func (b *stallingBody) Read(p []byte) (int, error) {
	if b.sent {
		return 0, io.ErrUnexpectedEOF
	}
	b.sent = true
	return copy(p, "<Envelope>"), nil
}

// TestHTTPDeclaredLengthHoldsWhatArrived: a request declaring the envelope
// cap whose body yields ten bytes and then fails costs the server memory in
// proportion to what arrived, not to what was declared — under 1 MiB, where
// an exactly sized read of the declared length takes the whole 8 MiB before
// the first byte — and is still rejected as truncated.
func TestHTTPDeclaredLengthHoldsWhatArrived(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	req := httptest.NewRequest(http.MethodPost, "/", &stallingBody{})
	req.ContentLength = maxEnvelopeBytes
	rec := httptest.NewRecorder()
	srv := NewHTTPServer(echoHandler())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a declared %d-byte body that sent 10 bytes allocated %d bytes, want under 1 MiB", maxEnvelopeBytes, grew)
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if got := reg.CounterVec("soap_inbound_rejects_total", "reason").With("truncated").Value(); got != 1 {
		t.Fatalf("truncated rejects = %d, want 1", got)
	}
}

// TestHTTPDeclaredLongBody: a body declared longer than firstReadBytes,
// arriving a little at a time, grows its buffer to exactly its declared
// length — no byte past it — and is served; one that ends short of it is
// truncated, and an empty one too.
func TestHTTPDeclaredLongBody(t *testing.T) {
	env := NewEnvelope()
	if err := env.SetBody(testBody{Value: strings.Repeat("x", 3*firstReadBytes)}); err != nil {
		t.Fatal(err)
	}
	full, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	trailing := bytes.NewReader(append(bytes.Clone(full), "trailing"...))
	req := httptest.NewRequest(http.MethodPost, "/", iotest.HalfReader(trailing))
	req.ContentLength = int64(len(full))
	data, err := readRequestBody(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, full) || trailing.Len() != len("trailing") {
		t.Fatalf("read %d bytes leaving %d unread, want the %d declared leaving %d",
			len(data), trailing.Len(), len(full), len("trailing"))
	}
	putBytes(data)

	rec := postRecorded(t, string(full), int64(len(full)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	for _, c := range []struct {
		body string
		want error
	}{{string(full[:len(full)-1]), io.ErrUnexpectedEOF}, {"", io.EOF}} {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body))
		req.ContentLength = int64(len(full))
		if _, err := readRequestBody(req); err != c.want {
			t.Fatalf("a %d-byte body declared %d: err = %v, want %v", len(c.body), len(full), err, c.want)
		}
	}
}
