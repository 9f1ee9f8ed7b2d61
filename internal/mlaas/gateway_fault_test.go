package mlaas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Fault-injection battery: nodes die between requests (httptest servers
// closed mid-run), shed load, or hold audit jobs hostage — and the gateway
// must mark down, fail over, and surface structured errors instead of
// hangs. The client-side regressions for the 503 path (WaitAudit polling,
// predict retry + cancel) live here too: they are what keeps a fleet CLI
// pointed at a degraded gateway responsive.

// gwTestConfig is the fast-hysteresis config the fault tests share: one
// strike marks a node down, membership is driven manually via probeAll.
func gwTestConfig(nodes ...string) GatewayConfig {
	return GatewayConfig{
		Nodes:          nodes,
		HealthInterval: time.Hour,
		MarkDownAfter:  1,
		MarkUpAfter:    1,
		Client:         ClientConfig{Timeout: 5 * time.Second},
	}
}

// TestGatewayFailoverOnNodeKill kills one of two replicas mid-run: every
// predict must keep succeeding bit-identically via the survivor, and the
// dead node must be marked down by the failed request itself (passive
// detection, no probe needed).
func TestGatewayFailoverOnNodeKill(t *testing.T) {
	m := testModel(t)
	var nodeSrvs []*httptest.Server
	for i := 0; i < 2; i++ {
		s := NewServer(m, ServerConfig{})
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		nodeSrvs = append(nodeSrvs, srv)
	}
	cfg := gwTestConfig(nodeSrvs[0].URL, nodeSrvs[1].URL)
	cfg.Replication = 2
	g, err := NewGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	gwSrv := httptest.NewServer(gs.Handler())
	t.Cleanup(gwSrv.Close)

	ctx := context.Background()
	c, err := Dial(ctx, gwSrv.URL, ClientConfig{Retries: NoRetries})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 16)
	rng.New(5).Uniform(x.Data, 0, 1)
	want := m.Predict(x.Clone())

	check := func() {
		t.Helper()
		got, err := c.Predict(ctx, x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("confidence %d drifted: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
	}
	check()
	if got := g.HealthyNodes(); got != 2 {
		t.Fatalf("healthy nodes before kill: %d", got)
	}

	nodeSrvs[0].Close() // the kill: connection refused from here on

	// Replication 2 + failover: every predict still succeeds, and within a
	// few requests the rotation has touched the dead node and struck it out.
	for i := 0; i < 4; i++ {
		check()
	}
	if got := g.HealthyNodes(); got != 1 {
		t.Fatalf("dead node not marked down after failed predicts: %d healthy", got)
	}

	// The gateway's healthz reflects the degraded fleet.
	resp, err := http.Get(gwSrv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Nodes != 2 || h.HealthyNodes != 1 {
		t.Fatalf("degraded healthz: %+v", h)
	}
}

// TestGatewayUnreplicatedModel503 shards two single-model zoos across two
// nodes (no replication) and kills one: the orphaned model must answer a
// prompt structured 503 — not a hang, not a 404 (its listing is sticky) —
// while the surviving node's model keeps serving.
func TestGatewayUnreplicatedModel503(t *testing.T) {
	m := testModel(t)
	var nodeSrvs []*httptest.Server
	for _, id := range []string{"alpha", "beta"} {
		dir := t.TempDir()
		if err := m.SaveFile(filepath.Join(dir, id+".bin")); err != nil {
			t.Fatal(err)
		}
		reg, err := OpenRegistry(dir, RegistryConfig{MaxLoaded: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := NewRegistryServer(reg)
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		nodeSrvs = append(nodeSrvs, srv)
	}
	g, err := NewGateway(context.Background(), gwTestConfig(nodeSrvs[0].URL, nodeSrvs[1].URL))
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	gwSrv := httptest.NewServer(gs.Handler())
	t.Cleanup(gwSrv.Close)
	ctx := context.Background()

	// The merged zoo spans both shards.
	list, err := ListModels(ctx, gwSrv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 2 || list.Models[0].ID != "alpha" || list.Models[1].ID != "beta" {
		t.Fatalf("merged listing: %+v", list)
	}

	x := tensor.New(1, 16)
	rng.New(6).Uniform(x.Data, 0, 1)
	body, err := json.Marshal(map[string]any{"inputs": [][]float64{x.Row(0)}})
	if err != nil {
		t.Fatal(err)
	}
	predict := func(id string) *http.Response {
		t.Helper()
		resp, err := http.Post(gwSrv.URL+"/v1/models/"+id+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := predict("alpha"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha before kill: %s", resp.Status)
	}

	nodeSrvs[0].Close() // alpha's only host dies

	start := time.Now()
	resp := predict("alpha")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("orphaned predict took %s (must fail fast, not hang)", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("orphaned model: %s, want 503", resp.Status)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(envelope.Error, "alpha") {
		t.Fatalf("503 envelope should name the model: %+v", envelope)
	}

	// Sticky listing: metadata still answers (the model exists, it is
	// currently unservable — 503, not 404).
	infoResp, err := http.Get(gwSrv.URL + "/v1/models/alpha/info")
	if err != nil {
		t.Fatal(err)
	}
	infoResp.Body.Close()
	if infoResp.StatusCode != http.StatusOK {
		t.Fatalf("sticky info after kill: %s", infoResp.Status)
	}

	// Audit submissions for the orphan shed the same way.
	auditResp, err := http.Post(gwSrv.URL+"/v1/models/alpha/audits", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	auditResp.Body.Close()
	if auditResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("orphaned audit submit: %s, want 503", auditResp.Status)
	}

	// The surviving shard is untouched.
	if resp := predict("beta"); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta after alpha's node died: %s", resp.Status)
	}
}

// TestGatewayRetryAfterPropagation pins the slow-node contract end-to-end:
// a node shedding with 429 + Retry-After must reach the end client with
// the node's own hint intact — header on the wire, field on StatusError.
func TestGatewayRetryAfterPropagation(t *testing.T) {
	s := NewServer(testModel(t), ServerConfig{})
	t.Cleanup(s.Close)
	inner := s.Handler()
	nodeSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/predict") {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"node saturated"}`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(nodeSrv.Close)

	g, err := NewGateway(context.Background(), gwTestConfig(nodeSrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	gwSrv := httptest.NewServer(gs.Handler())
	t.Cleanup(gwSrv.Close)
	ctx := context.Background()

	// Wire level: status and header survive the hop.
	resp, err := http.Post(gwSrv.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"inputs":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed predict: %s, want 429", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After through gateway: %q, want \"7\"", got)
	}

	// Client level: the hint lands on StatusError.RetryAfter.
	c, err := Dial(ctx, gwSrv.URL, ClientConfig{Retries: NoRetries})
	if err != nil {
		t.Fatal(err)
	}
	_, predictErr := c.Predict(ctx, tensor.New(1, 16))
	var se *StatusError
	if !errors.As(predictErr, &se) {
		t.Fatalf("want StatusError, got %v", predictErr)
	}
	if se.Code != http.StatusTooManyRequests || se.RetryAfter != 7 {
		t.Fatalf("StatusError through gateway: %+v", se)
	}
	// Shedding is not death: the node stays in the membership.
	if got := g.HealthyNodes(); got != 1 {
		t.Fatalf("429 must not mark the node down: %d healthy", got)
	}
}

// fakeAuditNode is a minimal wire-compatible node whose audit job "a1"
// runs forever — the piece a real node cannot provide deterministically
// for poll-path fault injection.
func fakeAuditNode(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	info := `{"id":"m","name":"m","classes":3,"input_dim":16,"max_batch":64}`
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","models":1,"audits_enabled":true,"audit_jobs":1}`))
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"default":"m","models":[` + info + `]}`))
	})
	for _, route := range []string{"GET /v1/info", "GET /v1/models/m/info"} {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(info))
		})
	}
	job := `{"id":"a1","model_id":"m","state":"running","created":"2026-01-01T00:00:00Z"}`
	mux.HandleFunc("POST /v1/models/m/audits", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(job))
	})
	mux.HandleFunc("GET /v1/audits/a1", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(job))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGatewayAuditPollSurvivesNodeKill kills the node holding a running
// audit job: polling the namespaced job must return a structured 503
// immediately, and a fleet-style WaitAudit against the degraded gateway
// must keep polling (the job may come back) yet stop the moment its
// context expires — the exact no-hang contract bprom -fleet relies on.
// The kill is injected through the chaos harness rather than closing the
// server, so the fault is revertible: the final section lifts it and
// proves the same poll works again with no gateway restart.
func TestGatewayAuditPollSurvivesNodeKill(t *testing.T) {
	node := fakeAuditNode(t)
	cfg := gwTestConfig(node.URL)
	chaos := NewChaosTransport(nil)
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	g, err := NewGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	gwSrv := httptest.NewServer(gs.Handler())
	t.Cleanup(gwSrv.Close)
	ctx := context.Background()

	c, err := DialModel(ctx, gwSrv.URL, "m", ClientConfig{AuditPoll: 30 * time.Millisecond, Retries: NoRetries})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.AuditModel(ctx, ServerAssignedInspectID)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "n0.a1" || job.Node != "n0" {
		t.Fatalf("namespaced job: %+v", job)
	}
	if got, err := c.GetAudit(ctx, job.ID); err != nil || got.State != "running" {
		t.Fatalf("poll before kill: %+v, %v", got, err)
	}

	chaos.Set(hostOf(node.URL), ChaosRule{Kill: true}) // the node holding the job drops off the network

	start := time.Now()
	_, pollErr := c.GetAudit(ctx, job.ID)
	var se *StatusError
	if !errors.As(pollErr, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("poll after kill: want structured 503, got %v", pollErr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("poll after kill took %s", elapsed)
	}

	// WaitAudit polls through the 503s (transient: the node might return)
	// but stops the moment the caller's deadline hits.
	waitCtx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, waitErr := c.WaitAudit(waitCtx, job.ID)
	if waitErr == nil {
		t.Fatal("WaitAudit against a dead node should fail once its context expires")
	}
	if !errors.Is(waitErr, context.DeadlineExceeded) {
		t.Fatalf("WaitAudit should surface the caller's deadline, got: %v", waitErr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("WaitAudit hung %s past its 400ms deadline", elapsed)
	}

	// Lift the fault: the node was never actually gone, and the next poll
	// must succeed without any gateway restart.
	chaos.Clear(hostOf(node.URL))
	if got, err := c.GetAudit(ctx, job.ID); err != nil || got.State != "running" {
		t.Fatalf("poll after heal: %+v, %v", got, err)
	}
}

// TestGatewayListAuditsReportsUnreachableFleet: GET /v1/audits through a
// gateway is "no jobs" only when some node said so. A fleet whose every
// node fails the list answers with the node error, a fleet with no healthy
// node answers 503, and a partial answer from the nodes that did reply
// stays a 200.
func TestGatewayListAuditsReportsUnreachableFleet(t *testing.T) {
	var failing [2]atomic.Bool
	var nodes []string
	for i := range failing {
		inner := fakeAuditNode(t).Config.Handler
		flag := &failing[i]
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || r.URL.Path != "/v1/audits" {
				inner.ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if flag.Load() {
				w.WriteHeader(http.StatusInternalServerError)
				_, _ = w.Write([]byte(`{"error":"journal unreadable"}`))
				return
			}
			_, _ = w.Write([]byte(`{"jobs":[{"id":"a1","model_id":"m","state":"running","created":"2026-01-01T00:00:00Z"}]}`))
		}))
		t.Cleanup(srv.Close)
		nodes = append(nodes, srv.URL)
	}
	cfg := gwTestConfig(nodes...)
	cfg.Client.Retries = NoRetries
	g, err := NewGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	gwSrv := httptest.NewServer(gs.Handler())
	t.Cleanup(gwSrv.Close)
	list := func() (int, string) {
		t.Helper()
		resp, err := http.Get(gwSrv.URL + "/v1/audits")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		return resp.StatusCode, body.String()
	}

	failing[0].Store(true)
	failing[1].Store(true)
	if status, body := list(); status != http.StatusInternalServerError {
		t.Fatalf("every node failed the list: %d %s, want the nodes' 500", status, body)
	}
	// Each 500 struck its node down (MarkDownAfter 1): nothing is healthy.
	if g.HealthyNodes() != 0 {
		t.Fatalf("%d nodes still healthy after failing the list", g.HealthyNodes())
	}
	if status, body := list(); status != http.StatusServiceUnavailable {
		t.Fatalf("no healthy node: %d %s, want 503", status, body)
	}

	failing[0].Store(false)
	g.probeAll(context.Background())
	if status, body := list(); status != http.StatusOK || !strings.Contains(body, `"n0.a1"`) {
		t.Fatalf("one node answered: %d %s, want 200 with its job", status, body)
	}
}

// TestWaitAuditTolerates503Blip: a transient 503 (node flap behind a
// gateway) must not abort a fleet wait — the regression the 503 path never
// had coverage for.
func TestWaitAuditTolerates503Blip(t *testing.T) {
	var hits atomic.Int64
	done := `{"id":"a1","model_id":"m","state":"done","created":"2026-01-01T00:00:00Z"}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"node n0: node unreachable"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(done))
	}))
	t.Cleanup(srv.Close)

	c := &Client{base: srv.URL, cfg: ClientConfig{AuditPoll: 10 * time.Millisecond}}
	c.cfg.defaults()
	job, err := c.WaitAudit(context.Background(), "a1")
	if err != nil {
		t.Fatalf("WaitAudit aborted on a transient 503: %v", err)
	}
	if job.State != "done" {
		t.Fatalf("final job: %+v", job)
	}
	if got := hits.Load(); got < 3 {
		t.Fatalf("WaitAudit gave up after %d polls", got)
	}
}

// TestWaitAuditStopsOnPermanentStatus: 404 means the job is gone — no
// amount of polling brings it back.
func TestWaitAuditStopsOnPermanentStatus(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":"unknown job"}`))
	}))
	t.Cleanup(srv.Close)

	c := &Client{base: srv.URL, cfg: ClientConfig{AuditPoll: 10 * time.Millisecond}}
	c.cfg.defaults()
	_, err := c.WaitAudit(context.Background(), "a9")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("want 404 StatusError, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("WaitAudit polled a deleted job %d times, want 1", got)
	}
}

// TestPredictStops503RetryOnCancelledContext extends the cancel-path
// regression to the gateway's signature status: 503 with a Retry-After
// hint is retryable, but a cancelled caller context overrides the hint
// immediately.
func TestPredictStops503RetryOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/info" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"id":"default","name":"gw","classes":3,"input_dim":16,"max_batch":64}`))
			return
		}
		hits.Add(1)
		cancel() // caller gives up right as the 503 lands
		w.Header().Set("Retry-After", "30")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(fmt.Sprintf(`{"error":"no healthy replica (%d)"}`, hits.Load())))
	}))
	t.Cleanup(srv.Close)

	c, err := Dial(context.Background(), srv.URL, ClientConfig{Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Predict(ctx, tensor.New(1, 16))
	if err == nil {
		t.Fatal("expected error")
	}
	// Depending on when cancellation lands, the last attempt surfaces as
	// either the transport-level cancel or the received 503 — both are
	// fine; issuing another attempt is not.
	var se *StatusError
	if !errors.Is(err, context.Canceled) && !(errors.As(err, &se) && se.Code == http.StatusServiceUnavailable) {
		t.Fatalf("error should surface the cancellation or the final 503, got: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("predict hit the endpoint %d times after cancellation, want 1 (Retry-After must not override cancel)", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled predict took %s", elapsed)
	}
}

// A gateway caches one dialed client per (node, model), and a dialed client
// carries the node's info document as of the dial: max_batch, screening, wire.
// A node that comes back different — restarted with another -max-batch, or as
// a build that does not speak the binary frame — must be dialed again, or it
// is sent oversized chunks and bodies it answers 400 to for as long as the
// gateway lives. The probe reads the info document every round; a round that
// finds it changed, or finds the node back from down, drops the clients.
func TestGatewayRedialsNodeClientsWhenInfoChanges(t *testing.T) {
	ctx := context.Background()
	m := testModel(t)
	// One address, several lives: the node restarts by swapping its handler.
	var live atomic.Pointer[http.Handler]
	restart := func(maxBatch int, legacy bool) *predictTypes {
		s := NewServer(m, ServerConfig{MaxBatch: maxBatch})
		t.Cleanup(s.Close)
		types := new(predictTypes)
		h := types.wrap(s.Handler())
		if legacy {
			h = withoutWire(h)
		}
		live.Store(&h)
		return types
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*live.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	first := restart(8, false)
	g, err := NewGateway(ctx, gwTestConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	x := tensor.New(8, 16)
	rng.New(31).Uniform(x.Data, 0, 1)
	want := m.Predict(x.Clone())
	predict := func(what string) {
		t.Helper()
		got, _, err := g.predict(ctx, "", x.Clone(), nil, false)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameBits(t, what, got, want)
	}
	dialed := func() *Client {
		n := g.nodes[0]
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.clients[DefaultModelID]
	}

	predict("first life")
	if !first.only(ContentTypeBinaryPredict) || first.requests[ContentTypeBinaryPredict] != 1 {
		t.Fatalf("first life: %v", first.requests)
	}
	// A probe round that finds nothing new keeps what was dialed.
	c := dialed()
	g.probeAll(ctx)
	if c == nil || dialed() != c {
		t.Fatal("an unchanged info document cost the node its dialed client")
	}

	// Second life: a quarter of the batch limit, and JSON only.
	second := restart(2, true)
	g.probeAll(ctx)
	predict("second life")
	if !second.only(contentTypeJSON) || second.requests[contentTypeJSON] != 4 {
		t.Fatalf("second life: %v, want four 2-row JSON chunks", second.requests)
	}

	// Third life looks exactly like the second to /v1/info, but the gateway
	// saw the node down in between: that alone is reason to dial again.
	c = dialed()
	g.nodes[0].recordFailure(1, errors.New("connection refused"))
	if g.HealthyNodes() != 0 {
		t.Fatal("node still up after a strike at MarkDownAfter 1")
	}
	g.probeAll(ctx)
	predict("third life")
	if g.HealthyNodes() != 1 || dialed() == c {
		t.Fatal("a node back from down kept its dialed client")
	}
}
