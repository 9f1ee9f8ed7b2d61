package mlaas

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bprom/internal/tensor"
)

var classNames = [...]string{"callerGone", "shed", "final", "nodeFault", "unreachable"}

func (c failureClass) String() string { return classNames[c] }

// TestClassify pins the one failure policy: each status as the client wraps
// it, a call with no reply, and the two ways a per-request deadline can end —
// the client's own Timeout against a hung endpoint (the endpoint's failure,
// although the error says context.DeadlineExceeded) and the caller's.
func TestClassify(t *testing.T) {
	live := context.Background()
	for _, tc := range []struct {
		code int
		want failureClass
	}{
		{http.StatusBadRequest, final},
		{http.StatusNotFound, final},
		{http.StatusConflict, final},
		{http.StatusTooManyRequests, shed},
		{http.StatusInternalServerError, nodeFault},
		{http.StatusNotImplemented, final},
		{http.StatusBadGateway, nodeFault},
		{http.StatusServiceUnavailable, nodeFault},
	} {
		err := fmt.Errorf("mlaas: predict failed: %w", &StatusError{Code: tc.code, URL: "http://node/v1/predict"})
		if got := classify(live, err); got != tc.want {
			t.Errorf("%d: %v, want %v", tc.code, got, tc.want)
		}
	}
	if got := classify(live, errors.New("mlaas: POST http://node/v1/predict: connection refused")); got != unreachable {
		t.Errorf("transport error: %v, want unreachable", got)
	}

	node := fakeAuditNode(t)
	chaos := NewChaosTransport(nil)
	chaos.Set(hostOf(node.URL), ChaosRule{Hang: true})
	c := &Client{base: node.URL, cfg: ClientConfig{Timeout: 20 * time.Millisecond, HTTPClient: &http.Client{Transport: chaos}}}
	c.cfg.defaults()
	_, err := c.GetAudit(live, "a1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung node: %v, want the client's own deadline", err)
	}
	if got := classify(live, err); got != unreachable {
		t.Errorf("client Timeout under a live caller: %v, want unreachable", got)
	}

	cancelled, cancel := context.WithCancel(live)
	cancel()
	expired, cancelExpired := context.WithDeadline(live, time.Now().Add(-time.Second))
	defer cancelExpired()
	for name, ctx := range map[string]context.Context{"cancel": cancelled, "deadline": expired} {
		_, err := c.GetAudit(ctx, "a1")
		if got := classify(ctx, err); got != callerGone {
			t.Errorf("caller's own %s: %v, want callerGone", name, got)
		}
		// A reply that lands as the caller leaves is the caller's too.
		if got := classify(ctx, &StatusError{Code: http.StatusServiceUnavailable}); got != callerGone {
			t.Errorf("503 after the caller's own %s: %v, want callerGone", name, got)
		}
	}
}

// scriptedNode is fakeAuditNode answering status on every route but the
// health probe's, so each gateway route meets that status from its node.
func scriptedNode(t *testing.T, status int) *httptest.Server {
	t.Helper()
	inner := fakeAuditNode(t).Config.Handler
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz", "/v1/models", "/v1/info", "/v1/models/m/info":
			inner.ServeHTTP(w, r)
			return
		}
		writeJSON(w, status, errorResponse{Error: "scripted"})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestGatewayRouteFailures runs every gateway route that calls a node
// against each way the call can fail, with one strike marking a node down
// (gwTestConfig), and pins the status the caller gets and whether the node
// stays up. Only a node's 5xx (bar 501) and no reply at all strike; the
// caller's own cancel never does.
func TestGatewayRouteFailures(t *testing.T) {
	routes := []struct {
		name string
		call func(context.Context, *Gateway) error
	}{
		{"predict", func(ctx context.Context, g *Gateway) error {
			_, _, err := g.predict(ctx, "m", tensor.New(1, 16), nil, false)
			return err
		}},
		{"submitAudit", func(ctx context.Context, g *Gateway) error {
			_, err := g.submitAudit(ctx, "m", ServerAssignedInspectID, nil)
			return err
		}},
		{"getAudit", func(ctx context.Context, g *Gateway) error {
			_, err := g.getAudit(ctx, "n0.a1", 0)
			return err
		}},
		{"cancelAudit", func(ctx context.Context, g *Gateway) error {
			_, err := g.cancelAudit(ctx, "n0.a1")
			return err
		}},
		{"exportAuditCheckpoint", func(ctx context.Context, g *Gateway) error {
			_, err := g.exportAuditCheckpoint(ctx, "n0.a1")
			return err
		}},
		{"listAudits", func(ctx context.Context, g *Gateway) error {
			_, err := g.listAudits(ctx)
			return err
		}},
		{"tenantUsage", func(ctx context.Context, g *Gateway) error {
			_, err := g.tenantUsage(ctx, "acme")
			return err
		}},
	}
	failures := []struct {
		name    string
		status  int  // what the node answers the route; 0: a live node
		kill    bool // no reply at all
		cancel  bool // the caller's context is cancelled before the call
		strikes bool
	}{
		{name: "caller cancel", cancel: true},
		{name: "429", status: http.StatusTooManyRequests},
		{name: "501", status: http.StatusNotImplemented},
		{name: "500", status: http.StatusInternalServerError, strikes: true},
		{name: "transport", kill: true, strikes: true},
	}
	// want[route] lists the caller's status per failure, in failures' order.
	// Every one is the node's own status, or 503 for a cancel or no reply;
	// only predict, which fails over on a 500, ends in "no healthy replica".
	want := map[string][5]int{
		"predict":               {503, 429, 501, 503, 503},
		"submitAudit":           {503, 429, 501, 500, 503},
		"getAudit":              {503, 429, 501, 500, 503},
		"cancelAudit":           {503, 429, 501, 500, 503},
		"exportAuditCheckpoint": {503, 429, 501, 500, 503},
		"listAudits":            {503, 429, 501, 500, 503},
		"tenantUsage":           {503, 429, 501, 500, 503},
	}
	for _, route := range routes {
		for i, f := range failures {
			t.Run(route.name+"/"+f.name, func(t *testing.T) {
				node := fakeAuditNode(t)
				if f.status != 0 {
					node = scriptedNode(t, f.status)
				}
				chaos := NewChaosTransport(nil)
				cfg := gwTestConfig(node.URL)
				cfg.Client.HTTPClient = &http.Client{Transport: chaos}
				g, err := NewGateway(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := NewGatewayServer(g)
				t.Cleanup(s.Close)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if f.kill {
					chaos.Set(hostOf(node.URL), ChaosRule{Kill: true})
				}
				if f.cancel {
					cancel()
				}

				err = route.call(ctx, g)
				if err == nil {
					t.Fatal("call succeeded")
				}
				rec := httptest.NewRecorder()
				s.writeError(rec, err)
				if rec.Code != want[route.name][i] {
					t.Errorf("status %d (%s), want %d", rec.Code, strings.TrimSpace(rec.Body.String()), want[route.name][i])
				}
				if f.cancel && !strings.Contains(rec.Body.String(), "cancelled") {
					t.Errorf("the caller's own cancel answered %s", strings.TrimSpace(rec.Body.String()))
				}
				healthy := 1
				if f.strikes {
					healthy = 0
				}
				if got := g.HealthyNodes(); got != healthy {
					t.Errorf("%d healthy nodes, want %d", got, healthy)
				}
			})
		}
	}
}
