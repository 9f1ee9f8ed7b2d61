package mlaas

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Chaos harness: a fault-injecting http.RoundTripper that sits between any
// mlaas client (including the gateway's per-node clients) and the wire.
// Faults are keyed by target host, toggled at runtime, and deterministic —
// a test decides exactly which node misbehaves, how, and when, instead of
// relying on real process kills and timing luck. Install it with
//
//	cfg.HTTPClient = &http.Client{Transport: NewChaosTransport(nil)}
//
// on a ClientConfig (or GatewayConfig.Client) and drive it with Set/Clear.
// Only this package's tests use it, so it lives in a _test file and is not
// part of the built package.

// ChaosRule describes the faults injected for one host. Zero value = no
// faults. Checks happen in field order below; the first matching fault
// wins.
type ChaosRule struct {
	// Kill makes every request fail immediately with a transport error, as
	// if the process were gone (connection refused).
	Kill bool
	// Hang blocks every request until its context expires, like a machine
	// that accepts the SYN and then freezes. The request fails with the
	// context's error; a client without a deadline waits forever.
	Hang bool
	// Delay sleeps before forwarding, modelling a slow node. The sleep
	// respects the request context.
	Delay time.Duration
	// FailNext answers the next N requests with a synthetic 500 instead of
	// forwarding, then the burst is spent and requests flow again.
	FailNext int
	// CorruptPath, when non-empty, forwards matching requests (substring
	// match on the URL path) but flips bits in the response body —
	// simulating a checkpoint export damaged in flight. CRC framing on the
	// receiving side must catch it.
	CorruptPath string
}

// ChaosTransport is an http.RoundTripper applying per-host ChaosRules.
// Safe for concurrent use.
type ChaosTransport struct {
	next http.RoundTripper

	mu    sync.Mutex
	rules map[string]*ChaosRule
}

// NewChaosTransport wraps next (nil: http.DefaultTransport).
func NewChaosTransport(next http.RoundTripper) *ChaosTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &ChaosTransport{next: next, rules: make(map[string]*ChaosRule)}
}

// Set installs (replaces) the rule for one host ("127.0.0.1:8701").
func (t *ChaosTransport) Set(host string, rule ChaosRule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules[host] = &rule
}

// Clear heals one host.
func (t *ChaosTransport) Clear(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.rules, host)
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	rule := t.rules[req.URL.Host]
	var r ChaosRule
	if rule != nil {
		r = *rule
		if rule.FailNext > 0 {
			rule.FailNext--
		}
	}
	t.mu.Unlock()
	switch {
	case r.Kill:
		return nil, fmt.Errorf("chaos: connect %s: connection refused", req.URL.Host)
	case r.Hang:
		<-req.Context().Done()
		return nil, fmt.Errorf("chaos: %s hung: %w", req.URL.Host, req.Context().Err())
	}
	if r.Delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, fmt.Errorf("chaos: %s slow: %w", req.URL.Host, req.Context().Err())
		case <-time.After(r.Delay):
		}
	}
	if r.FailNext > 0 {
		return synthetic500(req), nil
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if r.CorruptPath != "" && strings.Contains(req.URL.Path, r.CorruptPath) {
		return corruptBody(resp)
	}
	return resp, nil
}

// synthetic500 fabricates a well-formed error-envelope response, the shape
// a node under pressure would actually send.
func synthetic500(req *http.Request) *http.Response {
	body := `{"error":{"message":"chaos: injected server failure"}}`
	return &http.Response{
		Status:        "500 Internal Server Error",
		StatusCode:    http.StatusInternalServerError,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// corruptBody reads the response body and flips one bit per 64 bytes
// (always at least one), returning the damaged copy. Headers — including
// any length or checksum metadata — are left alone, exactly like silent
// wire or disk corruption.
func corruptBody(resp *http.Response) (*http.Response, error) {
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("chaos: corrupting body: %w", err)
	}
	for i := 0; i < len(data); i += 64 {
		data[i] ^= 0x80
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	resp.ContentLength = int64(len(data))
	return resp, nil
}
