package mlaas

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bprom/internal/binio"
	"bprom/internal/bprom"
	"bprom/internal/jobstore"
	"bprom/internal/nn"
	"bprom/internal/oracle"
)

// Migration battery: the no-audit-dies-with-its-node contract. Real-fleet
// tests prove a killed owner's audit finishes bit-identically on a replica;
// fake-node tests pin the supervisor's wire behavior (resume body content,
// grace-window flap protection) deterministically; and the chaos harness
// injects the faults — kill, hang, corrupt checkpoint — that real process
// kills cannot time precisely.

// migratingConfig is gwTestConfig plus an armed supervisor: tiny grace so
// tests migrate after two manual sweeps, hour-long interval so background
// sweeps never race the manual ones.
func migratingConfig(nodes ...string) GatewayConfig {
	cfg := gwTestConfig(nodes...)
	cfg.Migration = MigrationConfig{
		Enabled:  true,
		Grace:    time.Millisecond,
		Interval: time.Hour,
	}
	return cfg
}

func startGatewayServer(t *testing.T, cfg GatewayConfig) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := NewGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	gwSrv := httptest.NewServer(gs.Handler())
	t.Cleanup(gwSrv.Close)
	return g, gwSrv
}

// hostOf strips the scheme from an httptest URL, yielding the chaos-rule key.
func hostOf(srvURL string) string {
	return strings.TrimPrefix(srvURL, "http://")
}

// TestMigrationOnNodeKill is the acceptance test: kill the node that owns a
// running audit, and the job must finish on the surviving replica with a
// verdict and query count bit-identical to an uninterrupted in-process
// inspection — the whole time answering polls on the id the client was
// originally handed.
func TestMigrationOnNodeKill(t *testing.T) {
	env := sharedAuditEnv(t)
	srv0, _ := startAuditServer(t)
	srv1, _ := startAuditServer(t)
	nodeSrvs := []*httptest.Server{srv0, srv1}
	cfg := migratingConfig(srv0.URL, srv1.URL)
	cfg.Replication = 2
	g, gwSrv := startGatewayServer(t, cfg)
	ctx := context.Background()

	c, err := DialModel(ctx, gwSrv.URL, "badnets", ClientConfig{AuditPoll: 20 * time.Millisecond, Retries: NoRetries})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.AuditModel(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	owner := job.Node
	var ownerSrv *httptest.Server
	for i, s := range nodeSrvs {
		if fmt.Sprintf("n%d", i) == owner {
			ownerSrv = s
		}
	}
	if ownerSrv == nil {
		t.Fatalf("job on unknown node: %+v", job)
	}

	ownerSrv.Close() // the kill: the audit's node is gone mid-job

	g.probeAll(ctx) // one strike marks it down
	if got := g.HealthyNodes(); got != 1 {
		t.Fatalf("healthy after kill: %d, want 1", got)
	}
	g.sup.sweep(ctx) // stamps the down clock
	time.Sleep(10 * time.Millisecond)
	g.sup.sweep(ctx) // grace expired: migrates
	if got := g.sup.migrated(); got != 1 {
		t.Fatalf("migrations after grace: %d, want 1", got)
	}

	// The ORIGINAL id keeps answering, forwarded to the survivor.
	final, err := c.WaitAudit(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Verdict == nil {
		t.Fatalf("migrated audit did not finish: %+v", final)
	}
	if final.MigratedFrom != job.ID {
		t.Fatalf("migrated_from = %q, want %q", final.MigratedFrom, job.ID)
	}
	if final.Node == owner {
		t.Fatalf("job still reports the dead owner %q: %+v", owner, final)
	}

	m, err := nn.LoadFile(filepath.Join(env.zoo, "badnets.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := env.det.Inspect(ctx, oracle.NewModelOracle(m), 5)
	if err != nil {
		t.Fatal(err)
	}
	if *final.Verdict != want {
		t.Fatalf("migrated verdict %+v != uninterrupted %+v", *final.Verdict, want)
	}
	if final.Progress.Queries != want.Queries {
		t.Fatalf("migrated query count %d != uninterrupted %d", final.Progress.Queries, want.Queries)
	}

	// The fleet healthz counts the re-homed job.
	resp, err := http.Get(gwSrv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.MigratedJobs != 1 {
		t.Fatalf("healthz migrated_jobs = %d, want 1", h.MigratedJobs)
	}
}

// captureCheckpoint runs one uninterrupted resumable inspection in-process
// and returns its first checkpoint plus the final verdict — the fixture for
// resume-over-the-wire tests.
func captureCheckpoint(t *testing.T, modelID string, inspectID int) (*bprom.Checkpoint, bprom.Verdict) {
	t.Helper()
	env := sharedAuditEnv(t)
	m, err := nn.LoadFile(filepath.Join(env.zoo, modelID+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt *bprom.Checkpoint
	want, err := env.det.InspectResumable(context.Background(), oracle.NewModelOracle(m), inspectID, nil,
		func(c *bprom.Checkpoint) {
			if ckpt == nil {
				ckpt = c
			}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil {
		t.Fatal("inspection produced no checkpoint")
	}
	if ckpt.Queries <= 0 || ckpt.Queries >= want.Queries {
		t.Fatalf("mid-run checkpoint spend %d outside (0, %d)", ckpt.Queries, want.Queries)
	}
	return ckpt, want
}

func encodeTestFrame(t *testing.T, ckpt *bprom.Checkpoint) []byte {
	t.Helper()
	blob, err := ckpt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := binio.EncodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestMigrationResumeCarriesTenantSpend pins the ledger contract of a
// migrated job: the resume submission names the original tenant and carries
// the checkpoint's pre-charged spend, so the target node bills that tenant
// for the FRESH queries only — total spend across the migration equals one
// uninterrupted run, never a double charge — while the verdict stays
// bit-identical.
func TestMigrationResumeCarriesTenantSpend(t *testing.T) {
	ckpt, want := captureCheckpoint(t, "badnets", 77)
	frame := encodeTestFrame(t, ckpt)
	srv, _ := startTenantServer(t, []jobstore.TenantConfig{
		{Name: "svc", Key: "ks", Service: true},
		{Name: "acme", Key: "ka"},
	}, nil)
	ctx := context.Background()

	// The supervisor's credential is the service key; the resume body names
	// the tenant the job belongs to.
	c, err := DialModel(ctx, srv.URL, "badnets", ClientConfig{APIKey: "ks", AuditPoll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.AuditModelResume(ctx, 77, AuditResume{Checkpoint: frame, Tenant: "acme", Source: "n0.a9"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "acme" || job.MigratedFrom != "n0.a9" {
		t.Fatalf("resumed job identity: %+v", job)
	}
	final, err := c.WaitAudit(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Verdict == nil {
		t.Fatalf("resumed audit did not finish: %+v", final)
	}
	if *final.Verdict != want {
		t.Fatalf("resumed verdict %+v != uninterrupted %+v", *final.Verdict, want)
	}
	if final.Progress.Queries != want.Queries {
		t.Fatalf("resumed query count %d != uninterrupted %d", final.Progress.Queries, want.Queries)
	}

	// acme is charged only the queries actually made here: the checkpointed
	// spend was already billed wherever the job started.
	usage := func(name string) TenantUsage {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/tenants/" + name + "/usage")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var u TenantUsage
		if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
			t.Fatal(err)
		}
		return u
	}
	fresh := want.Queries - ckpt.Queries
	if got := usage("acme").Spent; got != fresh {
		t.Fatalf("acme spend after resume = %d, want %d (total %d minus checkpointed %d)",
			got, fresh, want.Queries, ckpt.Queries)
	}
	if got := usage("svc").Spent; got != 0 {
		t.Fatalf("service credential was billed %d queries, want 0", got)
	}
}

// TestResumeTenantRequiresServiceCredential pins the privilege boundary on
// resume attribution: only a `service`-flagged key may name a resume tenant
// other than its own. Without the check any authenticated tenant could bill
// oracle spend to a victim's quota — or name an unknown tenant and run
// unmetered, since only known tenants get quota-wrapped oracles.
func TestResumeTenantRequiresServiceCredential(t *testing.T) {
	srv, _ := startTenantServer(t, []jobstore.TenantConfig{
		{Name: "svc", Key: "ks", Service: true},
		{Name: "acme", Key: "ka"},
		{Name: "mallory", Key: "km"},
	}, nil)
	ctx := context.Background()

	dial := func(key string) *Client {
		t.Helper()
		c, err := DialModel(ctx, srv.URL, "clean", ClientConfig{APIKey: key, Retries: NoRetries})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// An ordinary tenant naming someone else (victim or ghost): 403, before
	// any work is enqueued.
	for _, victim := range []string{"acme", "ghost"} {
		_, err := dial("km").AuditModelResume(ctx, 1, AuditResume{Tenant: victim, Source: "n0.a1"})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusForbidden {
			t.Fatalf("mallory resuming as %q: err=%v, want 403", victim, err)
		}
		if !strings.Contains(se.Msg, "service credential") {
			t.Fatalf("403 should explain the service requirement: %q", se.Msg)
		}
	}

	// Naming yourself (or nobody) stays open to ordinary keys: the resume
	// route is also how a tenant restarts its own exported checkpoint.
	for _, tenant := range []string{"", "mallory"} {
		job, err := dial("km").AuditModelResume(ctx, 1, AuditResume{Tenant: tenant, Source: "n0.a2"})
		if err != nil {
			t.Fatalf("mallory resuming as %q: %v", tenant, err)
		}
		if job.Tenant != "mallory" {
			t.Fatalf("resume as %q attributed to %q, want mallory", tenant, job.Tenant)
		}
	}

	// The service credential may attribute to another tenant — the whole
	// point of the flag: the migration supervisor resumes on the original
	// tenant's behalf.
	job, err := dial("ks").AuditModelResume(ctx, 1, AuditResume{Tenant: "acme", Source: "n0.a3"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "acme" {
		t.Fatalf("service resume attributed to %q, want acme", job.Tenant)
	}
}

// resumeRecord captures what a migration target actually received. A
// non-zero rejectStatus scripts the target's answer to every submission
// (with an error envelope) instead of the 202; a non-zero cancelStatus
// does the same for cancellations instead of the 200.
type resumeRecord struct {
	mu           sync.Mutex
	inspectID    int
	resume       AuditResume
	hits         int
	rejectStatus int
	cancels      int
	cancelStatus int
}

// fakeFleetNode is a wire-compatible node hosting model "m" whose audit
// behavior is scripted: jobJSON is the job it reports (and returns on
// submit), ckptFrame (when non-nil) is served on the checkpoint route, and
// rec (when non-nil) records incoming resume submissions and cancellations.
func fakeFleetNode(t *testing.T, jobJSON string, ckptFrame []byte, rec *resumeRecord) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	info := `{"id":"m","name":"m","classes":3,"input_dim":16,"max_batch":64}`
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","models":1,"audits_enabled":true}`))
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
	mux.HandleFunc("POST /v1/models/m/audits", func(w http.ResponseWriter, r *http.Request) {
		reject := 0
		if rec != nil {
			var req struct {
				InspectID int          `json:"inspect_id"`
				Resume    *AuditResume `json:"resume"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			rec.mu.Lock()
			rec.hits++
			rec.inspectID = req.InspectID
			if req.Resume != nil {
				rec.resume = *req.Resume
			}
			reject = rec.rejectStatus
			rec.mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		if reject != 0 {
			w.WriteHeader(reject)
			_, _ = w.Write([]byte(`{"error":"scripted rejection","code":"scripted"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(jobJSON))
	})
	mux.HandleFunc("GET /v1/audits/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(jobJSON))
	})
	if rec != nil {
		mux.HandleFunc("DELETE /v1/audits/{id}", func(w http.ResponseWriter, r *http.Request) {
			rec.mu.Lock()
			rec.cancels++
			status := rec.cancelStatus
			rec.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			if status != 0 {
				w.WriteHeader(status)
				_, _ = w.Write([]byte(`{"error":"scripted rejection","code":"scripted"}`))
				return
			}
			_, _ = w.Write([]byte(jobJSON))
		})
	}
	if ckptFrame != nil {
		mux.HandleFunc("GET /v1/audits/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Audit-Generation", "1")
			w.Header().Set("X-Audit-Queries", "42")
			w.Header().Set("X-Audit-Model", "m")
			w.Header().Set("X-Audit-Inspect-Id", "9")
			w.Header().Set("X-Audit-Tenant", "acme")
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(ckptFrame)
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// orderFleet arranges owner and peer so the rendezvous placement for model
// "m" makes owner the submission primary — tests then know exactly which
// node a gateway-routed job lands on.
func orderFleet(owner, peer *httptest.Server) []string {
	if placementOrder("m", []string{"n0", "n1"})[0] == "n0" {
		return []string{owner.URL, peer.URL}
	}
	return []string{peer.URL, owner.URL}
}

// TestMigrationResumeWireContract pins what the supervisor actually posts
// when it re-homes a job: the cached checkpoint frame byte-for-byte (the
// frame is opaque to the gateway — no decode, no re-encode), the original
// tenant, the original inspect id, and the source job id.
func TestMigrationResumeWireContract(t *testing.T) {
	frame := []byte("opaque-checkpoint-frame-bytes: the gateway must not parse this")
	runningJob := `{"id":"a1","model_id":"m","inspect_id":9,"tenant":"acme","state":"running","created":"2026-01-01T00:00:00Z"}`
	doneJob := `{"id":"a5","model_id":"m","inspect_id":9,"tenant":"acme","state":"running","created":"2026-01-01T00:00:01Z"}`
	var rec resumeRecord
	owner := fakeFleetNode(t, runningJob, frame, nil)
	target := fakeFleetNode(t, doneJob, nil, &rec)

	chaos := NewChaosTransport(nil)
	cfg := migratingConfig(orderFleet(owner, target)...)
	cfg.Replication = 2
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	g, _ := startGatewayServer(t, cfg)
	ctx := context.Background()

	job, err := g.submitAudit(ctx, "m", 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.sup.sweep(ctx) // owner healthy: caches the exported frame
	snap := g.sup.snapshot()
	if len(snap) != 1 || string(snap[0].frame) != string(frame) {
		t.Fatalf("supervisor cached %d job(s), frame %q; want the exported frame", len(snap), snap[0].frame)
	}

	chaos.Set(hostOf(owner.URL), ChaosRule{Kill: true})
	g.probeAll(ctx)
	g.sup.sweep(ctx)
	time.Sleep(5 * time.Millisecond)
	g.sup.sweep(ctx)
	if got := g.sup.migrated(); got != 1 {
		t.Fatalf("migrations: %d, want 1", got)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.hits != 1 {
		t.Fatalf("target received %d submissions, want 1", rec.hits)
	}
	if string(rec.resume.Checkpoint) != string(frame) {
		t.Fatalf("checkpoint bytes changed in flight: %q", rec.resume.Checkpoint)
	}
	if rec.resume.Tenant != "acme" || rec.resume.Source != job.ID || rec.inspectID != 9 {
		t.Fatalf("resume identity: %+v inspect=%d, want tenant=acme source=%s inspect=9", rec.resume, rec.inspectID, job.ID)
	}
}

// TestMigrationFlapNoSpuriousMigration pins the grace window: a node that
// dips out of the membership and returns before the grace expires must keep
// its jobs — the down clock resets on recovery, and the migration counter
// stays at zero through repeated flaps.
func TestMigrationFlapNoSpuriousMigration(t *testing.T) {
	runningJob := `{"id":"a1","model_id":"m","inspect_id":3,"state":"running","created":"2026-01-01T00:00:00Z"}`
	owner := fakeFleetNode(t, runningJob, nil, nil)
	var rec resumeRecord
	peer := fakeFleetNode(t, runningJob, nil, &rec)

	chaos := NewChaosTransport(nil)
	cfg := migratingConfig(orderFleet(owner, peer)...)
	cfg.Replication = 2
	cfg.Migration.Grace = 10 * time.Second // flaps resolve well inside it
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	g, _ := startGatewayServer(t, cfg)
	ctx := context.Background()

	if _, err := g.submitAudit(ctx, "m", 3, nil); err != nil {
		t.Fatal(err)
	}
	downSince := func() time.Time {
		t.Helper()
		snap := g.sup.snapshot()
		if len(snap) != 1 {
			t.Fatalf("tracked jobs: %d, want 1", len(snap))
		}
		g.sup.mu.Lock()
		defer g.sup.mu.Unlock()
		return snap[0].downSince
	}

	ownerHost := hostOf(owner.URL)
	for flap := 0; flap < 3; flap++ {
		chaos.Set(ownerHost, ChaosRule{Kill: true})
		g.probeAll(ctx)
		g.sup.sweep(ctx)
		if downSince().IsZero() {
			t.Fatalf("flap %d: down clock not started", flap)
		}
		chaos.Clear(ownerHost)
		g.probeAll(ctx)
		g.sup.sweep(ctx)
		if !downSince().IsZero() {
			t.Fatalf("flap %d: down clock survived recovery — cumulative flaps would migrate", flap)
		}
	}
	if got := g.sup.migrated(); got != 0 {
		t.Fatalf("flapping owner triggered %d migration(s)", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.hits != 0 {
		t.Fatalf("peer received %d spurious submissions", rec.hits)
	}
}

// TestMigrationBadCheckpointFailsClean corrupts the checkpoint in flight
// (chaos bit-flips on the export route) and then kills the owner: the
// target node must reject the damaged frame CLEANLY — job created terminal,
// error_code "bad_checkpoint" — and the forward must still land, so the
// poller sees a structured failure instead of a hang or a silent restart
// that would re-bill the tenant from query zero.
func TestMigrationBadCheckpointFailsClean(t *testing.T) {
	ckpt, _ := captureCheckpoint(t, "clean", 3)
	frame := encodeTestFrame(t, ckpt)
	runningJob := `{"id":"a7","model_id":"clean","inspect_id":3,"state":"running","created":"2026-01-01T00:00:00Z"}`
	owner := fakeFleetNode(t, runningJob, frame, nil)
	target, _ := startAuditServer(t) // a REAL node decodes the migrated frame

	// The fake owner only hosts "m"; rename its model route by submitting on
	// the shared model id both nodes list. The fake node's zoo says "m", the
	// real node's zoo says clean/badnets/oddshape — so the merged zoo hosts
	// "m" only on the owner and migration would find no candidate. Instead,
	// drive the supervisor directly with a tracked job for "clean" whose
	// checkpoint cache is the corrupted frame.
	chaos := NewChaosTransport(nil)
	cfg := migratingConfig(owner.URL, target.URL)
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	chaos.Set(hostOf(owner.URL), ChaosRule{CorruptPath: "/checkpoint"})
	g, _ := startGatewayServer(t, cfg)
	ctx := context.Background()

	// Seed the tracked job by hand on the fake owner (its submit route only
	// answers for "m") and let the supervisor cache the corrupted export.
	ownerNode := g.byName["n0"]
	job, err := ownerNode.api.GetAudit(ctx, "a7")
	if err != nil {
		t.Fatal(err)
	}
	g.sup.track(ownerNode, namespaceJob(ownerNode, job), "clean")
	g.sup.sweep(ctx)
	snap := g.sup.snapshot()
	if len(snap) != 1 || snap[0].frame == nil {
		t.Fatal("supervisor did not cache the exported checkpoint")
	}
	if string(snap[0].frame) == string(frame) {
		t.Fatal("chaos corruption did not change the frame")
	}

	chaos.Set(hostOf(owner.URL), ChaosRule{Kill: true})
	g.probeAll(ctx)
	g.sup.sweep(ctx)
	time.Sleep(5 * time.Millisecond)
	g.sup.sweep(ctx)
	if got := g.sup.migrated(); got != 1 {
		t.Fatalf("migrations: %d, want 1", got)
	}

	// Polling the original id follows the forward to the clean failure.
	final, err := g.getAudit(ctx, "n0.a7", 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "failed" || final.ErrorCode != "bad_checkpoint" {
		t.Fatalf("migrated job with corrupt checkpoint: %+v, want failed/bad_checkpoint", final)
	}
	if final.MigratedFrom != "n0.a7" {
		t.Fatalf("migrated_from = %q, want n0.a7", final.MigratedFrom)
	}
	if !strings.Contains(final.Error, "corrupt") {
		t.Fatalf("failure should name the corruption: %q", final.Error)
	}
	// A clean terminal failure leaves supervision: nothing to re-migrate.
	if got := len(g.sup.snapshot()); got != 0 {
		t.Fatalf("failed job still tracked (%d)", got)
	}
}

// TestChaosHangRequestTimeout pins the per-request deadline: against a node
// that accepts connections and then freezes, a client with a tight Timeout
// fails fast instead of waiting the 30s default.
func TestChaosHangRequestTimeout(t *testing.T) {
	node := fakeFleetNode(t, `{"id":"a1","model_id":"m","state":"running","created":"2026-01-01T00:00:00Z"}`, nil, nil)
	chaos := NewChaosTransport(nil)
	c := &Client{base: node.URL, cfg: ClientConfig{
		Timeout:    100 * time.Millisecond,
		Retries:    NoRetries,
		HTTPClient: &http.Client{Transport: chaos},
	}}
	c.cfg.defaults()

	chaos.Set(hostOf(node.URL), ChaosRule{Hang: true})
	start := time.Now()
	_, err := c.GetAudit(context.Background(), "a1")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hung node: want error")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("request against hung node took %s; Timeout=100ms must cut it off", elapsed)
	}
	chaos.Clear(hostOf(node.URL))
	if _, err := c.GetAudit(context.Background(), "a1"); err != nil {
		t.Fatalf("healed node: %v", err)
	}
}

// TestChaosProbeTimeoutMarksHungNodeDown: a hung node must cost the
// membership loop at most ProbeTimeout, not the client's full default.
func TestChaosProbeTimeoutMarksHungNodeDown(t *testing.T) {
	running := `{"id":"a1","model_id":"m","state":"running","created":"2026-01-01T00:00:00Z"}`
	n0 := fakeFleetNode(t, running, nil, nil)
	n1 := fakeFleetNode(t, running, nil, nil)
	chaos := NewChaosTransport(nil)
	cfg := gwTestConfig(n0.URL, n1.URL)
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	g, err := NewGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	chaos.Set(hostOf(n0.URL), ChaosRule{Hang: true})
	start := time.Now()
	g.probeAll(context.Background())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("probe round with a hung node took %s, want ~ProbeTimeout", elapsed)
	}
	if got := g.HealthyNodes(); got != 1 {
		t.Fatalf("hung node not marked down: %d healthy", got)
	}
}

// TestChaosErrorBurstStrikesThenHeals drives the hysteresis through the
// harness instead of server kills: a burst of injected 500s marks the node
// down after MarkDownAfter strikes, and once the burst is spent the probes
// bring it back.
func TestChaosErrorBurstStrikesThenHeals(t *testing.T) {
	running := `{"id":"a1","model_id":"m","state":"running","created":"2026-01-01T00:00:00Z"}`
	node := fakeFleetNode(t, running, nil, nil)
	chaos := NewChaosTransport(nil)
	cfg := gwTestConfig(node.URL)
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	g, err := NewGateway(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ctx := context.Background()

	// Each probe round consumes one injected 500 (the round aborts on its
	// first failed request), so a burst of 2 costs exactly two rounds.
	chaos.Set(hostOf(node.URL), ChaosRule{FailNext: 2})
	g.probeAll(ctx)
	if got := g.HealthyNodes(); got != 0 {
		t.Fatalf("node healthy through a 500 burst: %d", got)
	}
	g.probeAll(ctx) // second 500: burst spent
	g.probeAll(ctx) // this round succeeds end to end
	if got := g.HealthyNodes(); got != 1 {
		t.Fatalf("node did not heal after the burst: %d healthy", got)
	}
}

// TestMigrationDeterministicRejectAbandons: a target that answers a resume
// submission with a final status (a non-429 4xx, or 501) would answer the
// same on every sweep (the fleet is uniform), so the supervisor must give
// up — job out of supervision, counted in healthz migration_failures —
// instead of resubmitting forever.
func TestMigrationDeterministicRejectAbandons(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusNotImplemented} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			runningJob := `{"id":"a1","model_id":"m","inspect_id":3,"state":"running","created":"2026-01-01T00:00:00Z"}`
			owner := fakeFleetNode(t, runningJob, nil, nil)
			rec := resumeRecord{rejectStatus: status}
			target := fakeFleetNode(t, runningJob, nil, &rec)

			chaos := NewChaosTransport(nil)
			cfg := migratingConfig(orderFleet(owner, target)...)
			cfg.Replication = 2
			cfg.Client.HTTPClient = &http.Client{Transport: chaos}
			g, gwSrv := startGatewayServer(t, cfg)
			ctx := context.Background()

			if _, err := g.submitAudit(ctx, "m", 3, nil); err != nil {
				t.Fatal(err)
			}
			chaos.Set(hostOf(owner.URL), ChaosRule{Kill: true})
			g.probeAll(ctx)
			g.sup.sweep(ctx) // stamps the down clock
			time.Sleep(5 * time.Millisecond)
			g.sup.sweep(ctx) // grace expired: attempts, gets the final status, abandons
			g.sup.sweep(ctx) // must NOT retry an abandoned job

			rec.mu.Lock()
			hits := rec.hits
			rec.mu.Unlock()
			if hits != 1 {
				t.Fatalf("target saw %d submissions, want exactly 1 (no retry after a final status)", hits)
			}
			if got := g.sup.migrated(); got != 0 {
				t.Fatalf("migrations: %d, want 0", got)
			}
			if got := g.sup.failed(); got != 1 {
				t.Fatalf("failed counter: %d, want 1", got)
			}
			if got := len(g.sup.snapshot()); got != 0 {
				t.Fatalf("abandoned job still tracked (%d)", got)
			}

			// The give-up is visible to operators on the fleet healthz.
			resp, err := http.Get(gwSrv.URL + "/v1/healthz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var h Health
			if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
				t.Fatal(err)
			}
			if h.MigrationFailures != 1 {
				t.Fatalf("healthz migration_failures = %d, want 1", h.MigrationFailures)
			}
		})
	}
}

// TestMigrationBackoffDefersNotSleeps pins the no-sleeping-in-sweeps
// contract: after a transient migration failure the job is deferred by its
// backoff deadline — the sweep itself returns immediately (other jobs keep
// their cadence) and later sweeps skip the job until the deadline passes.
func TestMigrationBackoffDefersNotSleeps(t *testing.T) {
	runningJob := `{"id":"a1","model_id":"m","inspect_id":3,"state":"running","created":"2026-01-01T00:00:00Z"}`
	owner := fakeFleetNode(t, runningJob, nil, nil)
	rec := resumeRecord{rejectStatus: http.StatusServiceUnavailable}
	target := fakeFleetNode(t, runningJob, nil, &rec)

	chaos := NewChaosTransport(nil)
	cfg := migratingConfig(orderFleet(owner, target)...)
	cfg.Replication = 2
	// A backoff so large that any inline sleep would hang the test — and any
	// pass before the deadline proves the deferral was ignored.
	cfg.Migration.backoffBase = time.Hour
	cfg.Migration.backoffMax = time.Hour
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	g, _ := startGatewayServer(t, cfg)
	ctx := context.Background()

	if _, err := g.submitAudit(ctx, "m", 3, nil); err != nil {
		t.Fatal(err)
	}
	chaos.Set(hostOf(owner.URL), ChaosRule{Kill: true})
	g.probeAll(ctx)
	g.sup.sweep(ctx) // stamps the down clock
	time.Sleep(5 * time.Millisecond)

	start := time.Now()
	g.sup.sweep(ctx) // the 503: defers with the hour-long backoff, no sleep
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep with a failing target took %s: backoff must defer, not sleep", elapsed)
	}
	g.sup.sweep(ctx) // inside the backoff window: must not attempt again

	rec.mu.Lock()
	hits := rec.hits
	rec.mu.Unlock()
	if hits != 1 {
		t.Fatalf("target saw %d submissions, want 1 (deferred by backoff)", hits)
	}
	snap := g.sup.snapshot()
	if len(snap) != 1 {
		t.Fatalf("deferred job left supervision: %d tracked", len(snap))
	}
	g.sup.mu.Lock()
	nextTry := snap[0].nextTry
	g.sup.mu.Unlock()
	if until := time.Until(nextTry); until < 10*time.Minute {
		t.Fatalf("nextTry %s away, want ~an hour", until)
	}

	// Deadline passed (simulated) and the target healed: the job migrates.
	rec.mu.Lock()
	rec.rejectStatus = 0
	rec.mu.Unlock()
	g.sup.mu.Lock()
	snap[0].nextTry = time.Now().Add(-time.Second)
	g.sup.mu.Unlock()
	g.sup.sweep(ctx)
	if got := g.sup.migrated(); got != 1 {
		t.Fatalf("migrations after backoff expiry: %d, want 1", got)
	}
}

// TestMigrationBookkeepingPruned pins the supervisor's memory bound: the
// forward-chain entry and the pending stale-copy cancellation left behind by
// a migration age out forwardTTL after the migrated job leaves supervision,
// so a long-lived gateway under churn does not grow state forever.
func TestMigrationBookkeepingPruned(t *testing.T) {
	runningJob := `{"id":"a1","model_id":"m","inspect_id":3,"state":"running","created":"2026-01-01T00:00:00Z"}`
	// The migrated job is born terminal on the target: it leaves supervision
	// immediately, starting the forward entry's TTL clock.
	doneJob := `{"id":"a2","model_id":"m","inspect_id":3,"state":"done","created":"2026-01-01T00:00:01Z"}`
	owner := fakeFleetNode(t, runningJob, nil, nil)
	var rec resumeRecord
	target := fakeFleetNode(t, doneJob, nil, &rec)

	chaos := NewChaosTransport(nil)
	cfg := migratingConfig(orderFleet(owner, target)...)
	cfg.Replication = 2
	cfg.Migration.forwardTTL = 50 * time.Millisecond
	cfg.Client.HTTPClient = &http.Client{Transport: chaos}
	g, _ := startGatewayServer(t, cfg)
	ctx := context.Background()

	job, err := g.submitAudit(ctx, "m", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Set(hostOf(owner.URL), ChaosRule{Kill: true})
	g.probeAll(ctx)
	g.sup.sweep(ctx)
	time.Sleep(5 * time.Millisecond)
	g.sup.sweep(ctx)
	if got := g.sup.migrated(); got != 1 {
		t.Fatalf("migrations: %d, want 1", got)
	}

	counts := func() (forwards, stale int) {
		g.sup.mu.Lock()
		defer g.sup.mu.Unlock()
		return len(g.sup.forwards), len(g.sup.stale)
	}
	// Inside the TTL window the bookkeeping is intact: the original id still
	// resolves (clients poll the terminal verdict through it) and the stale
	// copy on the dead owner is still scheduled for cancellation.
	if f, s := counts(); f != 1 || s != 1 {
		t.Fatalf("right after migration: %d forwards, %d stale; want 1, 1", f, s)
	}
	if got := g.sup.resolve(job.ID); got == job.ID {
		t.Fatalf("forward for %s gone before TTL", job.ID)
	}

	time.Sleep(60 * time.Millisecond) // past forwardTTL
	g.sup.sweep(ctx)
	if f, s := counts(); f != 0 || s != 0 {
		t.Fatalf("after forwardTTL: %d forwards, %d stale; want both pruned", f, s)
	}
}

// TestStaleCancelRetriesRateLimit pins that a 429 on a stale-copy DELETE is
// transient: a tenancy-enabled node rate-limits mutating requests with 429,
// and retiring the cancellation then would leave the orphaned copy running
// and billing the tenant twice. The entry must survive until the node
// actually answers.
func TestStaleCancelRetriesRateLimit(t *testing.T) {
	runningJob := `{"id":"a1","model_id":"m","inspect_id":3,"state":"running","created":"2026-01-01T00:00:00Z"}`
	rec := resumeRecord{cancelStatus: http.StatusTooManyRequests}
	node := fakeFleetNode(t, runningJob, nil, &rec)
	g, _ := startGatewayServer(t, migratingConfig(node.URL))
	ctx := context.Background()

	// The returned owner's orphaned copy, as migrate leaves it behind.
	g.sup.mu.Lock()
	g.sup.stale = append(g.sup.stale, staleJob{node: g.nodes[0], localID: "a1", since: time.Now()})
	g.sup.mu.Unlock()
	pending := func() int {
		g.sup.mu.Lock()
		defer g.sup.mu.Unlock()
		return len(g.sup.stale)
	}

	g.sup.sweep(ctx) // the node answers 429
	if got := pending(); got != 1 {
		t.Fatalf("%d pending after the 429, want 1", got)
	}

	rec.mu.Lock()
	rec.cancelStatus = 0
	rec.mu.Unlock()
	g.sup.sweep(ctx) // the node answers 200
	if got := pending(); got != 0 {
		t.Fatalf("%d pending after the 200, want 0", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.cancels != 2 {
		t.Fatalf("node saw %d cancellations, want 2", rec.cancels)
	}
}

// TestSubmitBodyFitsCheckpointCeiling pins the size relationship the
// reviewer caught inverted: every checkpoint frame a node can legally
// export (≤ maxCheckpointWire) must fit, base64-encoded with envelope
// slack, inside the submit body cap — otherwise a large-but-valid
// checkpoint can never be resubmitted and migration wedges.
func TestSubmitBodyFitsCheckpointCeiling(t *testing.T) {
	need := base64.StdEncoding.EncodedLen(maxCheckpointWire) + 1024
	if maxSubmitBody < need {
		t.Fatalf("maxSubmitBody %d < base64(maxCheckpointWire)+slack %d", maxSubmitBody, need)
	}
}
