package mlaas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"bprom/internal/audit"
	"bprom/internal/binio"
	"bprom/internal/bprom"
	"bprom/internal/jobstore"
	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

// Audit-as-a-service routes: the HTTP face of internal/audit. A server
// started with a detector artifact (EnableAudits) accepts asynchronous
// audit jobs against its own hosted models — POST to submit, GET to list
// and poll, DELETE to cancel — so the platform audits its zoo server-side
// instead of every defender pulling thousands of confidence vectors over
// the wire. See docs/API.md for the wire reference.

// ErrAuditsDisabled reports an audit request against a server that was not
// given a detector. The HTTP layer maps it to 501.
var ErrAuditsDisabled = errors.New("mlaas: audits not enabled on this server (start it with a detector artifact)")

// AuditConfig tunes the server-side audit service.
type AuditConfig struct {
	// Workers bounds concurrently running audit jobs. Default 2.
	Workers int
	// MaxQueued bounds jobs waiting for a worker (submissions beyond it
	// get 429). Default 64.
	MaxQueued int
	// Store, when non-nil, makes audit jobs durable: lifecycle transitions
	// and per-generation search checkpoints are journaled, and EnableAudits
	// re-enqueues the journal's interrupted jobs so they resume bit-exactly
	// after a restart. The caller owns the store and closes it after the
	// server's Close returns.
	Store *jobstore.Store
	// CheckpointEvery journals every Nth generation checkpoint (default 1).
	// Larger values trade restart granularity for journal traffic; a
	// graceful shutdown still flushes the latest snapshot regardless.
	CheckpointEvery int
}

// EnableAudits attaches an audit job manager over det to the server: the
// /v1/audits route family becomes live, auditing the server's own hosted
// models in-process. Call it once, before the server starts handling
// requests — and after EnableTenancy, so resumed jobs' oracles pick up
// their tenants' quota ledgers. Close (and Serve on shutdown) stops the
// manager; with a Store the shutdown checkpoints running jobs instead of
// failing them, and the next EnableAudits over the same store resumes them.
func (s *Server) EnableAudits(det *bprom.Detector, cfg AuditConfig) error {
	l := &localAudits{prov: s.prov, tenancy: s.tenancy, store: cfg.Store}
	acfg := audit.Config{
		Workers:         cfg.Workers,
		MaxQueued:       cfg.MaxQueued,
		Store:           cfg.Store,
		CheckpointEvery: cfg.CheckpointEvery,
	}
	if cfg.Store != nil {
		// Resumed jobs rebuild their oracles here: same provider path and
		// same quota wrap as a fresh submission, so a resumed job's queries
		// land on the same ledger its pre-restart queries did.
		acfg.OracleFor = func(modelID, tenant string) (oracle.Oracle, error) {
			info, err := s.prov.Info(modelID)
			if err != nil {
				return nil, err
			}
			return l.oracle(info, tenant), nil
		}
	}
	m, err := audit.NewManager(det, acfg)
	if err != nil {
		return err
	}
	l.mgr = m
	// A local manager always wins: a server with its own detector runs jobs
	// in-process whatever it routed to before.
	s.local, s.jobs = l, l
	return nil
}

// Audits exposes the attached audit manager (nil when audits are disabled).
// In-process callers (examples, tests) can submit and poll without HTTP.
func (s *Server) Audits() *audit.Manager {
	if s.local == nil {
		return nil
	}
	return s.local.mgr
}

// auditBackend is the one seam between the HTTP layer and whatever runs
// audit jobs behind it. A node's Server runs them in-process (localAudits);
// a gateway's Server routes them to the fleet (*Gateway, job ids namespaced
// "{node}.{id}"). Every /v1/audits*, /v1/tenants/{id}/usage and /v1/healthz
// handler is decode → one call here → write, so the two cannot drift apart
// on the wire.
type auditBackend interface {
	// submitAudit enqueues an audit of modelID ("" = the default model) on
	// behalf of the tenant authenticated on ctx. inspectID < 0 lets the
	// backend assign the stream; a non-nil resume continues a migrated job.
	submitAudit(ctx context.Context, modelID string, inspectID int, resume *AuditResume) (audit.Job, error)
	getAudit(ctx context.Context, jobID string) (audit.Job, error)
	// listAudits returns every held job in submission order.
	listAudits(ctx context.Context) ([]audit.Job, error)
	// cancelAudit cancels and removes a job, returning its last snapshot.
	cancelAudit(ctx context.Context, jobID string) (audit.Job, error)
	// exportAuditCheckpoint returns a live job's newest checkpoint frame;
	// audit.ErrNoCheckpoint (unwrapped by routing) means none exists yet.
	exportAuditCheckpoint(ctx context.Context, jobID string) (CheckpointExport, error)
	tenantUsage(ctx context.Context, name string) (TenantUsage, error)
	// augmentHealth fills the audit-service fields of a /v1/healthz payload
	// (and, on a gateway, the fleet view).
	augmentHealth(h *Health)
}

// errNotAuditable reports a submission against a model the detector cannot
// prompt. The HTTP layer maps it to 400.
var errNotAuditable = errors.New("not auditable")

// localAudits is the in-process auditBackend of a serving node: an
// audit.Manager over the provider's own engines, metered by the tenancy.
// Until EnableAudits supplies the manager every job route answers
// ErrAuditsDisabled; tenant usage only needs the tenancy.
type localAudits struct {
	prov    provider
	tenancy *jobstore.Tenancy // nil without EnableTenancy
	mgr     *audit.Manager    // nil until EnableAudits
	store   *jobstore.Store   // nil unless jobs are durable
}

// oracle builds the oracle an audit job queries: the provider's own engines
// (no HTTP loopback), quota-wrapped when the tenant is known to the
// tenancy. Unknown or empty tenants (serverless tests, the re-audit
// scheduler's synthetic tenant on a key file that does not name it) run
// unmetered.
func (l *localAudits) oracle(info ModelInfo, tenant string) oracle.Oracle {
	var o oracle.Oracle = &providerOracle{prov: l.prov, id: info.ID, classes: info.Classes, inputDim: info.InputDim}
	if l.tenancy != nil {
		if t, ok := l.tenancy.Lookup(tenant); ok {
			o = jobstore.WrapOracle(t, o)
		}
	}
	return o
}

// submitAudit validates the model and its detector compatibility up front,
// so incompatible submissions fail fast instead of producing a failed job.
func (l *localAudits) submitAudit(ctx context.Context, modelID string, inspectID int, resume *AuditResume) (audit.Job, error) {
	if l.mgr == nil {
		return audit.Job{}, ErrAuditsDisabled
	}
	info, err := l.prov.Info(modelID)
	if err != nil {
		return audit.Job{}, err
	}
	if err := l.mgr.Detector().Compatible(info.Classes, info.InputDim); err != nil {
		return audit.Job{}, fmt.Errorf("model %q %w: %v", info.ID, errNotAuditable, err)
	}
	tenant := tenantFrom(ctx)
	var frame []byte
	source := ""
	if resume != nil {
		// A migrated job keeps its original tenant attribution: the
		// supervisor resubmits with its own service credential (validated
		// at the edge), but spend and listings must follow the tenant who
		// paid for the first half.
		if resume.Tenant != "" {
			tenant = resume.Tenant
		}
		frame, source = resume.Checkpoint, resume.Source
	}
	return l.mgr.SubmitResume(info.ID, tenant, l.oracle(info, tenant), inspectID, frame, source)
}

func (l *localAudits) getAudit(_ context.Context, jobID string) (audit.Job, error) {
	if l.mgr == nil {
		return audit.Job{}, ErrAuditsDisabled
	}
	return l.mgr.Get(jobID)
}

func (l *localAudits) listAudits(context.Context) ([]audit.Job, error) {
	if l.mgr == nil {
		return nil, ErrAuditsDisabled
	}
	return l.mgr.List(), nil
}

func (l *localAudits) cancelAudit(_ context.Context, jobID string) (audit.Job, error) {
	if l.mgr == nil {
		return audit.Job{}, ErrAuditsDisabled
	}
	return l.mgr.Delete(jobID)
}

func (l *localAudits) exportAuditCheckpoint(_ context.Context, jobID string) (CheckpointExport, error) {
	if l.mgr == nil {
		return CheckpointExport{}, ErrAuditsDisabled
	}
	c, err := l.mgr.ExportCheckpoint(jobID)
	if err != nil {
		return CheckpointExport{}, err
	}
	job, err := l.mgr.Get(jobID)
	if err != nil {
		return CheckpointExport{}, err
	}
	blob, err := c.Encode()
	if err != nil {
		return CheckpointExport{}, err
	}
	frame, err := binio.EncodeFrame(blob)
	if err != nil {
		return CheckpointExport{}, err
	}
	return CheckpointExport{
		Frame:      frame,
		Generation: c.Generation,
		Queries:    c.Queries,
		ModelID:    job.ModelID,
		InspectID:  job.InspectID,
		Tenant:     job.Tenant,
	}, nil
}

func (l *localAudits) tenantUsage(_ context.Context, name string) (TenantUsage, error) {
	if l.tenancy == nil {
		return TenantUsage{}, ErrTenancyDisabled
	}
	t, ok := l.tenancy.Lookup(name)
	if !ok {
		return TenantUsage{}, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	u := TenantUsage{Tenant: t.Name, Quota: t.Quota, Spent: t.Spent()}
	if n, bounded := t.Remaining(); bounded {
		u.Remaining = n
	}
	if l.mgr != nil {
		for _, j := range l.mgr.List() {
			if j.Tenant == t.Name {
				u.Jobs++
			}
		}
	}
	return u, nil
}

func (l *localAudits) augmentHealth(h *Health) {
	if l.mgr != nil {
		h.AuditsEnabled = true
		h.AuditJobs = l.mgr.Len()
	}
	if l.store != nil {
		st := l.store.Stats()
		h.JobStore = &st
	}
}

// providerOracle adapts one hosted model to oracle.Oracle for server-side
// audits: queries go straight to the provider's engines (no HTTP loopback),
// chunked to the provider's per-request batch limit so audit traffic obeys
// the same batching contract as wire traffic. Each chunk's confidences are
// written by the engine straight into its rows of the caller's tensor
// (oracle.IntoPredictor).
type providerOracle struct {
	prov     provider
	id       string
	classes  int
	inputDim int
}

var (
	_ oracle.BatchLimiter  = (*providerOracle)(nil)
	_ oracle.IntoPredictor = (*providerOracle)(nil)
)

func (o *providerOracle) NumClasses() int { return o.classes }
func (o *providerOracle) InputDim() int   { return o.inputDim }

// MaxBatch reports the provider's per-request row limit (oracle.BatchLimiter):
// the width fused audit batches are chunked to below.
func (o *providerOracle) MaxBatch() int { return o.prov.MaxBatch() }

func (o *providerOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 2 {
		return nil, fmt.Errorf("mlaas: audit input shape %v, want [N %d]", x.Shape(), o.inputDim)
	}
	out := tensor.New(x.Dim(0), o.classes)
	if err := o.PredictInto(ctx, out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto writes x's confidence rows into dst, one provider request per
// MaxBatch rows, each answered into its own rows of dst. After an error an
// engine may still be writing dst (oracle.IntoPredictor).
//
// Audit traffic is never screened (screen=false): an inspection issues
// thousands of probe queries that only need raw confidences, and its verdict
// must stay bit-identical whether or not the hosted model also serves
// screened predict traffic.
func (o *providerOracle) PredictInto(ctx context.Context, dst, x *tensor.Tensor) error {
	if x.Rank() != 2 || x.Dim(1) != o.inputDim {
		return fmt.Errorf("mlaas: audit input shape %v, want [N %d]", x.Shape(), o.inputDim)
	}
	n := x.Dim(0)
	if dst.Rank() != 2 || dst.Dim(0) != n || dst.Dim(1) != o.classes {
		return fmt.Errorf("mlaas: audit destination shape %v, want [%d %d]", dst.Shape(), n, o.classes)
	}
	step := o.prov.MaxBatch()
	if step <= 0 || step > n {
		step = n
	}
	for start := 0; start < n; start += step {
		end := min(start+step, n)
		chunk, rows := x, dst
		if step < n {
			chunk = tensor.FromSlice(x.Data[start*o.inputDim:end*o.inputDim], end-start, o.inputDim)
			rows = tensor.FromSlice(dst.Data[start*o.classes:end*o.classes], end-start, o.classes)
		}
		if _, _, err := o.prov.predict(ctx, o.id, chunk, rows, false); err != nil {
			return err
		}
	}
	return nil
}

// auditSubmitRequest is the POST /v1/models/{id}/audits body. All fields
// are optional; an empty body is valid.
type auditSubmitRequest struct {
	// InspectID selects the inspection RNG stream (reproducibility handle:
	// the same detector, model, and inspect_id give a bit-identical
	// verdict). Absent or negative: the server assigns the job's
	// submission sequence number. Required (non-negative) with a resume
	// block — a resumed search must continue the original RNG stream.
	InspectID *int `json:"inspect_id"`
	// Resume, when present, makes this a migrated submission: the job
	// continues from the attached wire-exported checkpoint (or from
	// scratch when the checkpoint is empty), attributed to the original
	// tenant and linked to its source job. On a tenancy-enabled server a
	// resume.tenant different from the authenticated tenant requires a
	// service credential (403 tenant_forbidden otherwise).
	Resume *AuditResume `json:"resume,omitempty"`
}

// auditListResponse is the GET /v1/audits payload.
type auditListResponse struct {
	Jobs []audit.Job `json:"jobs"`
}

// Health is the GET /v1/healthz payload: liveness plus the state of the
// audit service, so orchestrators (and fleet CLIs, as a preflight) can tell
// a serving-only endpoint from a full audit platform.
type Health struct {
	// Status is "ok" whenever the server answers at all.
	Status string `json:"status"`
	// Models counts hosted models.
	Models int `json:"models"`
	// AuditsEnabled reports whether the server carries a detector.
	AuditsEnabled bool `json:"audits_enabled"`
	// AuditJobs counts jobs the audit manager currently holds (always
	// present — 0 with audits enabled means "idle", which monitoring must
	// be able to tell apart from "disabled").
	AuditJobs int `json:"audit_jobs"`
	// ScreenedModels counts hosted models covered by inline request
	// screening (0 on servers without a screener).
	ScreenedModels int `json:"screened_models,omitempty"`
	// Nodes counts backend nodes behind a gateway (absent on single-node
	// servers).
	Nodes int `json:"nodes,omitempty"`
	// HealthyNodes counts gateway backend nodes currently marked up
	// (absent on single-node servers).
	HealthyNodes int `json:"healthy_nodes,omitempty"`
	// JobStore reports the audit journal's state when jobs are durable
	// (absent otherwise). A gateway reports the sum over its healthy nodes
	// (bytes and resumed jobs add; last_compaction is the newest).
	JobStore *jobstore.Stats `json:"job_store,omitempty"`
	// MigratedJobs counts audit jobs the gateway's migration supervisor has
	// re-homed off dead nodes (absent on single-node servers and when
	// migration is disabled).
	MigratedJobs int `json:"migrated_jobs,omitempty"`
	// MigrationFailures counts jobs the supervisor gave up migrating because
	// every target would deterministically reject the resubmission (4xx
	// other than 429) — surfaced so operators see abandoned jobs instead of
	// the supervisor silently crash-looping on them.
	MigrationFailures int `json:"migration_failures,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	models := s.prov.Models()
	resp := Health{Status: "ok", Models: len(models)}
	for _, mi := range models {
		if mi.Screened {
			resp.ScreenedModels++
		}
	}
	s.jobs.augmentHealth(&resp)
	writeJSON(w, http.StatusOK, resp)
}

// maxSubmitBody bounds a submit body: enough for the base64 encoding of
// the largest checkpoint frame a node can export (maxCheckpointWire — the
// journal's frame ceiling) plus JSON-envelope slack. Anything bigger cannot
// be a legal submission. The old 16MB cap was SMALLER than a legal export,
// so an oversized-but-valid checkpoint migrated into a deterministic 400
// and the supervisor retried it forever; now every exportable frame fits.
const maxSubmitBody = (maxCheckpointWire+2)/3*4 + 4096

// handleSubmitAudit serves POST /v1/models/{id}/audits (and the legacy
// default-model alias POST /v1/audits, id ""). Shape errors and the
// resume-tenant privilege are settled here, at the edge; model lookup,
// detector compatibility and queueing belong to the backend (on a gateway,
// to the node placed for the model, whose verdicts pass through).
func (s *Server) handleSubmitAudit(w http.ResponseWriter, r *http.Request, id string) {
	var req auditSubmitRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubmitBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "read body: " + err.Error()})
		return
	}
	if len(body) > maxSubmitBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "submit body exceeds the checkpoint frame ceiling"})
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decode: " + err.Error()})
			return
		}
	}
	inspectID := -1
	if req.InspectID != nil {
		inspectID = *req.InspectID
	}
	if req.Resume != nil && inspectID < 0 {
		// A server-assigned stream cannot continue the original search: the
		// resumed CMA-ES state is only meaningful on the RNG stream that
		// produced it.
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "resume requires the original non-negative inspect_id"})
		return
	}
	tenant := tenantFrom(r.Context())
	if req.Resume != nil && req.Resume.Tenant != "" && req.Resume.Tenant != tenant && s.tenancy != nil {
		// resume.tenant redirects billing, so honoring it is a privilege:
		// only a service credential (the gateway's migration supervisor) may
		// resume on another tenant's behalf. An ordinary key that could name
		// an arbitrary tenant here would charge its oracle spend to a
		// victim's quota — or name an unknown tenant and run unmetered.
		// A tenancy-enabled gateway rejects here too, before routing, with
		// the same envelope as a node.
		if t, ok := s.tenancy.Lookup(tenant); !ok || !t.Service {
			writeJSON(w, http.StatusForbidden, errorResponse{
				Error: fmt.Sprintf("resume.tenant %q: only a service credential may resume on another tenant's behalf", req.Resume.Tenant),
				Code:  "tenant_forbidden",
			})
			return
		}
	}
	job, err := s.jobs.submitAudit(r.Context(), id, inspectID, req.Resume)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// handleExportCheckpoint serves GET /v1/audits/{id}/checkpoint: the job's
// newest checkpoint as one CRC-framed application/octet-stream body, with
// the job's identity in X-Audit-* headers. 204 means "job exists, nothing
// checkpointed yet" (submit a fresh-resume instead); 409 a terminal job;
// 404 an unknown one.
func (s *Server) handleExportCheckpoint(w http.ResponseWriter, r *http.Request) {
	exp, err := s.jobs.exportAuditCheckpoint(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Audit-Generation", strconv.Itoa(exp.Generation))
	h.Set("X-Audit-Queries", strconv.FormatInt(exp.Queries, 10))
	h.Set("X-Audit-Model", exp.ModelID)
	h.Set("X-Audit-Inspect-Id", strconv.Itoa(exp.InspectID))
	if exp.Tenant != "" {
		h.Set("X-Audit-Tenant", exp.Tenant)
	}
	_, _ = w.Write(exp.Frame)
}

func (s *Server) handleListAudits(w http.ResponseWriter, r *http.Request) {
	jobs, err := s.jobs.listAudits(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	if jobs == nil {
		jobs = []audit.Job{}
	}
	writeJSON(w, http.StatusOK, auditListResponse{Jobs: jobs})
}

func (s *Server) handleGetAudit(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.getAudit(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleDeleteAudit(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.cancelAudit(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}
