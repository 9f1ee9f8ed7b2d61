package mlaas

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bprom/internal/audit"
)

// auditGets counts GET /v1/audits/{id} requests on their way into h and
// closes arrived on the first one.
type auditGets struct {
	h       http.Handler
	n       atomic.Int64
	once    sync.Once
	arrived chan struct{}
}

func countAuditGets(h http.Handler) *auditGets {
	return &auditGets{h: h, arrived: make(chan struct{})}
}

func (g *auditGets) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/audits/") {
		g.n.Add(1)
		g.once.Do(func() { close(g.arrived) })
	}
	g.h.ServeHTTP(w, r)
}

// parkedJob submits a job on s's manager whose oracle stalls until release
// is closed, and returns once a worker holds it.
func parkedJob(t *testing.T, s *Server, release chan struct{}) audit.Job {
	t.Helper()
	info, err := s.prov.Info("clean")
	if err != nil {
		t.Fatal(err)
	}
	stall := newStallOracle(info.Classes, info.InputDim, release)
	job, err := s.Audits().Submit("clean", "", stall, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-stall.entered
	return job
}

type waitAuditResult struct {
	job audit.Job
	err error
}

// waitAuditAsync runs c.WaitAudit on its own goroutine.
func waitAuditAsync(c *Client, id string) <-chan waitAuditResult {
	res := make(chan waitAuditResult, 1)
	go func() {
		job, err := c.WaitAudit(context.Background(), id)
		res <- waitAuditResult{job, err}
	}()
	return res
}

// TestWaitAuditIsOneHeldRequest: WaitAudit on a parked job is one GET that
// the node holds until the job, released meanwhile, is terminal — however
// short AuditPoll is. A malformed or negative wait is a 400.
func TestWaitAuditIsOneHeldRequest(t *testing.T) {
	s := newAuditNode(t, AuditConfig{Workers: 1})
	gets := countAuditGets(s.Handler())
	srv := httptest.NewServer(gets)
	t.Cleanup(srv.Close)
	release := make(chan struct{})
	job := parkedJob(t, s, release)

	c := &Client{base: srv.URL, cfg: ClientConfig{AuditPoll: time.Millisecond}}
	c.cfg.defaults()
	res := waitAuditAsync(c, job.ID)
	<-gets.arrived
	close(release)
	r := <-res
	if r.err != nil || !r.job.State.Terminal() {
		t.Fatalf("WaitAudit: %+v, %v", r.job, r.err)
	}
	if n := gets.n.Load(); n != 1 {
		t.Fatalf("WaitAudit sent %d GETs, want 1 held request", n)
	}
	for _, bad := range []string{"soon", "-1s"} {
		resp, err := http.Get(srv.URL + "/v1/audits/" + job.ID + "?wait=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s answered %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestWaitAuditPollsNodeIgnoringWait: an endpoint that answers at once,
// whatever wait asks, is still polled to the terminal snapshot, no faster
// than AuditPoll.
func TestWaitAuditPollsNodeIgnoringWait(t *testing.T) {
	const running = 3
	var hits atomic.Int64
	var waits sync.Map
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		waits.Store(r.URL.Query().Get("wait"), true)
		state := "running"
		if hits.Add(1) > running {
			state = "done"
		}
		writeJSON(w, http.StatusOK, audit.Job{ID: "a1", State: audit.State(state)})
	}))
	t.Cleanup(srv.Close)

	const poll = 10 * time.Millisecond
	c := &Client{base: srv.URL, cfg: ClientConfig{AuditPoll: poll}}
	c.cfg.defaults()
	start := time.Now()
	job, err := c.WaitAudit(context.Background(), "a1")
	if err != nil || job.State != audit.StateDone {
		t.Fatalf("WaitAudit: %+v, %v", job, err)
	}
	if got := hits.Load(); got != running+1 {
		t.Fatalf("%d GETs, want %d", got, running+1)
	}
	if elapsed := time.Since(start); elapsed < running*poll {
		t.Fatalf("%d polls took %s, under %d AuditPoll ticks", running+1, elapsed, running)
	}
	want := (c.cfg.Timeout / 2).String()
	waits.Range(func(k, _ any) bool {
		if k != want {
			t.Errorf("GET carried wait=%q, want %q (half the client Timeout)", k, want)
		}
		return true
	})
}

// TestGatewayForwardsAuditWait: through a gateway, WaitAudit is still one
// held GET on the owning node, and the snapshot comes back namespaced.
func TestGatewayForwardsAuditWait(t *testing.T) {
	s := newAuditNode(t, AuditConfig{Workers: 1})
	gets := countAuditGets(s.Handler())
	node := httptest.NewServer(gets)
	t.Cleanup(node.Close)
	cfg := gwTestConfig(node.URL)
	cfg.Client.Timeout = 30 * time.Second // node holds of up to 15 s
	_, gwSrv := startGatewayServer(t, cfg)
	release := make(chan struct{})
	job := parkedJob(t, s, release)

	c := &Client{base: gwSrv.URL, cfg: ClientConfig{AuditPoll: time.Millisecond}}
	c.cfg.defaults()
	res := waitAuditAsync(c, "n0."+job.ID)
	<-gets.arrived
	close(release)
	r := <-res
	if r.err != nil || !r.job.State.Terminal() || r.job.ID != "n0."+job.ID || r.job.Node != "n0" {
		t.Fatalf("WaitAudit through the gateway: %+v, %v", r.job, r.err)
	}
	if n := gets.n.Load(); n != 1 {
		t.Fatalf("the node saw %d GETs, want 1 held request", n)
	}
}

// TestGatewayAbandonedWaitKeepsNodeUp: a client that gives up on a wait held
// through a gateway cuts the gateway's request to the node. That is the
// caller's doing, not the node's, so it is no health strike.
func TestGatewayAbandonedWaitKeepsNodeUp(t *testing.T) {
	s := newAuditNode(t, AuditConfig{Workers: 1})
	gets := countAuditGets(s.Handler())
	node := httptest.NewServer(gets)
	t.Cleanup(node.Close)
	cfg := gwTestConfig(node.URL) // one strike marks a node down
	cfg.Client.Timeout = 30 * time.Second
	g, err := NewGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	h := gs.Handler()
	served := make(chan struct{})
	gwSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/audits/") {
			close(served)
		}
	}))
	t.Cleanup(gwSrv.Close)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	job := parkedJob(t, s, release)

	c := &Client{base: gwSrv.URL}
	c.cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := c.WaitAudit(ctx, "n0."+job.ID)
		res <- err
	}()
	<-gets.arrived
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned WaitAudit: %v, want context.Canceled", err)
	}
	<-served
	if n := g.HealthyNodes(); n != 1 {
		t.Fatalf("an abandoned wait marked the node down: %d healthy nodes", n)
	}
}

// TestServeShutdownReleasesHeldWait: cancelling Serve's context while a GET
// is held answers that GET with the job's current snapshot and lets Serve
// return nil at once, well inside its 5 s shutdown grace.
func TestServeShutdownReleasesHeldWait(t *testing.T) {
	s := newAuditNode(t, AuditConfig{Workers: 1})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	job := parkedJob(t, s, release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready

	// Once the request is written on a fresh connection, shutdown waits for
	// its handler instead of closing the connection as idle.
	wrote := make(chan struct{})
	rctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { close(wrote) },
	})
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, "http://"+addr+"/v1/audits/"+job.ID+"?wait=1m", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	type reply struct {
		status int
		job    audit.Job
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var j audit.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		got <- reply{resp.StatusCode, j, err}
	}()
	<-wrote
	start := time.Now()
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Serve took %s to shut down past a held wait", elapsed)
	}
	r := <-got
	if r.err != nil || r.status != http.StatusOK || r.job.ID != job.ID {
		t.Fatalf("held GET across shutdown: %d %+v, %v", r.status, r.job, r.err)
	}
}

// BenchmarkAuditLoopback is one server-side audit as a client sees it:
// submit, then WaitAudit to the verdict, against a loopback node, at the
// AuditPoll bench/ uses. requests/op counts the HTTP requests that took:
// one submit plus every GET of the wait.
func BenchmarkAuditLoopback(b *testing.B) {
	s := newAuditNode(b, AuditConfig{Workers: 1})
	h := s.Handler()
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	b.Cleanup(srv.Close)
	ctx := context.Background()
	c, err := DialModel(ctx, srv.URL, "clean", ClientConfig{AuditPoll: 10 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	requests.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		job, err := c.AuditModel(ctx, 1)
		if err != nil {
			b.Fatal(err)
		}
		if job, err = c.WaitAudit(ctx, job.ID); err != nil || job.State != audit.StateDone {
			b.Fatalf("audit %s: %+v, %v", job.ID, job, err)
		}
	}
	b.ReportMetric(float64(requests.Load())/float64(b.N), "requests/op")
}
