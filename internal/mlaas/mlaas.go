// Package mlaas provides a Machine-Learning-as-a-Service layer: an HTTP
// server that exposes models as a prediction API (confidence vectors only,
// exactly the paper's threat model) and a client that implements
// oracle.Oracle over the wire. BPROM runs unchanged against either an
// in-process model or a remote endpoint — the examples and integration
// tests exercise detection across a real network boundary.
//
// The server hosts either a single in-memory model (NewServer) or a whole
// zoo of on-disk checkpoints (NewRegistryServer + Registry): the registry
// scans a checkpoint directory, lazily loads models on first request, and
// keeps a bounded LRU hot-set so any number of checkpoints serve within a
// fixed memory budget. Each hot model gets its own micro-batch worker
// group; all of them share the one process-wide tensor worker pool.
//
// A server given a detector artifact (EnableAudits) additionally runs
// audit-as-a-service: asynchronous server-side BPROM audit jobs against its
// own hosted models (internal/audit), so one trained detector screens the
// whole zoo without the defender pulling predictions over the wire.
//
// The HTTP layer (Server) sits on exactly two unexported seams. provider
// answers listings and predicts: one in-memory model, a Registry, or a
// Gateway's fleet. auditBackend answers everything about audit jobs —
// submit (with optional resume), poll, list, cancel, checkpoint export,
// tenant usage, and the audit half of healthz: in-process on a node
// (localAudits over an audit.Manager, the tenancy and the provider's
// engines), routed to the owning node on a gateway (*Gateway implements
// both seams itself). Each handler decodes, makes one backend call, and
// writes — which is why a gateway's responses are envelope-for-envelope a
// node's.
//
// API (see docs/API.md for the full wire-protocol reference):
//
//	GET    /v1/models                  -> {"default": id, "models": [{...}, ...]}
//	GET    /v1/models/{id}/info        -> {"id", "name", "arch", "classes", "input_dim", "max_batch", "wire"}
//	POST   /v1/models/{id}/predict     {"inputs": [[f64,...],...]} -> {"confidences": [[f64,...],...]}
//	POST   /v1/models/{id}/audits      submit an async audit job -> 202 + job
//	GET    /v1/audits                  -> {"jobs": [...]} (submission order)
//	GET    /v1/audits/{id}             poll one job (state, progress, verdict)
//	DELETE /v1/audits/{id}             cancel (context-cancel) and remove a job
//	GET    /v1/healthz                 liveness + audit-service state
//	GET    /v1/info                    alias for the default model's info
//	POST   /v1/predict                 alias for the default model's predict
//	POST   /v1/audits                  alias: audit the default model
//
// Serving is fully concurrent: the nn inference path is stateless, so each
// model's engine runs one forward pass per worker with no global lock. An
// adaptive micro-batcher coalesces requests that queue up while workers are
// busy into a single forward pass, so throughput under load approaches the
// model's raw batched-inference rate — and a coalesced pass wider than one
// 16-row block is itself parallel inside, because nn spreads its row blocks
// across the process-wide shared worker pool (a narrower pass runs on its
// worker alone). The client adds timeouts, bounded
// retries with exponential backoff, and transparent chunking of batches
// larger than the endpoint's advertised max_batch.
//
// The two predict messages — all the bytes a black-box audit moves — have
// one codec (wire.go) that node, gateway and client share, through pooled
// buffers. In JSON it is encoding/json both ways, over row views of the flat
// tensor data, as on every other route; the client reads no more of a reply
// than the rows it asked about can need.
//
// JSON is the reference spelling of those two messages and what every
// foreign caller speaks. Between this package's own Client and Server — an
// audit against a node, both legs of a gateway hop — they travel as
// ContentTypeBinaryPredict instead (wire_bin.go): the same values as float64
// bit patterns inside one binio CRC frame, because spelling floats as decimal
// text was most of what a remote audit cost. The info document's "wire" field
// is the whole negotiation: a server lists the type, a client that dialed such
// a server sends it, the server answers in the type it was asked in, and the
// client decodes by the reply's own Content-Type. The frame refuses what JSON
// cannot say (NaN, ±Inf) and keeps every limit, status and message of the
// JSON route.
package mlaas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bprom/internal/audit"
	"bprom/internal/jobstore"
	"bprom/internal/nn"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// ErrUnknownModel reports a model id the serving surface does not host.
// The HTTP layer maps it to 404.
var ErrUnknownModel = errors.New("mlaas: unknown model")

// DefaultModelID is the id under which NewServer registers its single
// model, and the id aliased by the legacy /v1/info and /v1/predict routes
// on a single-model server.
const DefaultModelID = "default"

// ModelInfo describes one hosted model in /v1/models listings.
type ModelInfo struct {
	// ID is the route segment that selects the model (/v1/models/{id}/...).
	ID string `json:"id"`
	// Name is the display name (sidecar name, or the id when absent).
	Name string `json:"name,omitempty"`
	// Arch is the nn architecture family of the checkpoint.
	Arch string `json:"arch,omitempty"`
	// Note is free-form provenance from the checkpoint sidecar.
	Note string `json:"note,omitempty"`
	// Classes is the label-space size.
	Classes int `json:"classes"`
	// InputDim is the flattened per-sample input width.
	InputDim int `json:"input_dim"`
	// Params is the trainable-scalar count (0 when unknown).
	Params int `json:"params,omitempty"`
	// Screened reports whether inline request screening covers this model:
	// the server carries a screener, the model's input width matches its
	// prompt canvas, and no sidecar opted the model out.
	Screened bool `json:"screened,omitempty"`
	// Loaded reports whether the model is resident in the LRU hot-set
	// right now (single-model servers are always loaded).
	Loaded bool `json:"loaded"`
	// ResidentBytes is the weight bytes the model occupies while resident
	// (0 when cold).
	ResidentBytes int `json:"resident_bytes,omitempty"`
}

// provider abstracts where hosted models come from: a single in-memory
// model (NewServer), a disk-backed LRU registry (NewRegistryServer), or a
// fleet of nodes (NewGatewayServer).
type provider interface {
	// Models lists every hosted model, sorted by id.
	Models() []ModelInfo
	// DefaultID is the model served by the legacy un-prefixed routes.
	DefaultID() string
	// Info resolves one model's metadata without forcing a load.
	// id "" means the default model.
	Info(id string) (ModelInfo, error)
	// MaxBatch is the per-request row limit shared by all hosted models.
	MaxBatch() int
	// predict routes one batch to the model's engine (or a node), loading
	// it first if necessary, and writes the confidence rows into dst:
	// [n, classes] caller storage, returned as the result, or nil for a
	// fresh tensor. id "" means the default model. screen requests inline
	// screening: when the model is screened, the returned slice holds one
	// outcome per input row (nil otherwise — unscreened models and
	// screen=false cost nothing extra). After an error dst may still be
	// written, and x read, by a queued job: the caller drops both.
	predict(ctx context.Context, id string, x, dst *tensor.Tensor, screen bool) (*tensor.Tensor, []vp.ScreenResult, error)
	// Close stops every engine.
	Close()
}

// Screening policies: what the server does with a flagged input row.
const (
	// ScreenAnnotate (the default) serves every row and attaches the
	// screening block — confidences are bit-identical to an unscreened
	// server.
	ScreenAnnotate = "annotate"
	// ScreenReject withholds flagged rows' confidences: the row's entry in
	// the response is null and its screening block carries rejected=true
	// plus an error message (a structured 403-style error row; the HTTP
	// status stays 200 because other rows of the batch may be fine).
	ScreenReject = "reject"
)

// validScreenPolicy reports whether p names a screening policy ("" means
// ScreenAnnotate).
func validScreenPolicy(p string) bool {
	return p == "" || p == ScreenAnnotate || p == ScreenReject
}

// ServerConfig tunes the service.
type ServerConfig struct {
	// Name is reported by /v1/info (a model-zoo listing name). Ignored in
	// registry mode, where each checkpoint carries its own name.
	Name string
	// MaxBatch bounds samples per request, and is the coalescing target of
	// the micro-batcher. Advertised via /v1/info so clients chunk larger
	// batches themselves. Default 512. Ignored in registry mode (the
	// RegistryConfig sets it).
	MaxBatch int
	// MaxConcurrent bounds simultaneous forward passes: it is the number of
	// micro-batch workers, and only workers run inference. Default 4.
	// Ignored in registry mode (the RegistryConfig sets it per model).
	//
	// A pass of at most one row block (16 rows) runs entirely on its worker,
	// so a narrow request's only parallelism is other requests: at most
	// MaxConcurrent narrow passes per model run at once, and the tensor
	// pool's width does not matter to them. Wider passes spread their row
	// blocks over the tensor package's shared worker pool (one bounded pool
	// per process, sized by GOMAXPROCS or BPROM_TENSOR_WORKERS), so raising
	// MaxConcurrent adds request-level concurrency without oversubscribing
	// CPUs: concurrent passes interleave their blocks on the same pool
	// workers. Pool shares, not pool-per-request.
	MaxConcurrent int
	// Screener enables inline request screening (typically derived from a
	// detector artifact via bprom.Detector.Screener): every screened predict
	// row gets a suspicion score from the learned prompt, fused into the
	// same micro-batched forward pass as the row itself. Its InputDim must
	// match the model's. Nil disables screening.
	Screener *vp.Screener
	// ScreenPolicy picks what happens to flagged rows: ScreenAnnotate
	// (default) or ScreenReject. Ignored without a Screener.
	ScreenPolicy string
}

func (c *ServerConfig) defaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 512
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.ScreenPolicy == "" {
		c.ScreenPolicy = ScreenAnnotate
	}
}

// singleProvider hosts exactly one in-memory model under DefaultModelID.
type singleProvider struct {
	info ModelInfo
	eng  *engine
}

func (p *singleProvider) Models() []ModelInfo { return []ModelInfo{p.info} }
func (p *singleProvider) DefaultID() string   { return p.info.ID }
func (p *singleProvider) MaxBatch() int       { return p.eng.maxBatch }
func (p *singleProvider) Close()              { p.eng.close() }

func (p *singleProvider) Info(id string) (ModelInfo, error) {
	if id != "" && id != p.info.ID {
		return ModelInfo{}, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	return p.info, nil
}

func (p *singleProvider) predict(ctx context.Context, id string, x, dst *tensor.Tensor, screen bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	if id != "" && id != p.info.ID {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	return p.eng.predictInto(ctx, x, dst, screen)
}

// Server is the HTTP front of the service: request decoding, model routing,
// and the error envelope. Inference happens behind the provider (per-model
// engines on a node, the fleet on a gateway); audit jobs, tenant usage and
// the audit half of healthz happen behind the one auditBackend.
type Server struct {
	prov         provider
	screenPolicy string              // ScreenAnnotate or ScreenReject
	jobs         auditBackend        // local, or the *Gateway on a gateway server
	local        *localAudits        // the in-process backend (nil on a gateway server)
	tenancy      *jobstore.Tenancy   // edge auth; nil until EnableTenancy
	reaudit      *jobstore.Scheduler // nil until EnableReaudit
	once         sync.Once
}

// newNodeServer builds a Server that runs its audit jobs in-process.
func newNodeServer(prov provider, screenPolicy string) *Server {
	l := &localAudits{prov: prov}
	return &Server{prov: prov, screenPolicy: screenPolicy, jobs: l, local: l}
}

// NewServer wraps one frozen in-memory model and starts its micro-batch
// workers. The model must not be mutated afterwards. Call Close to stop
// the workers (Serve does so on shutdown). The model is hosted under
// DefaultModelID, so multi-model clients work against it too. A Screener
// whose canvas does not match the model's input width, or an unknown
// ScreenPolicy, is a programmer error and panics (registry mode reports
// these as OpenRegistry errors instead).
func NewServer(model *nn.Model, cfg ServerConfig) *Server {
	if !validScreenPolicy(cfg.ScreenPolicy) {
		panic(fmt.Sprintf("mlaas: unknown screen policy %q (want %q or %q)", cfg.ScreenPolicy, ScreenAnnotate, ScreenReject))
	}
	cfg.defaults()
	if cfg.Screener != nil && cfg.Screener.InputDim() != model.InputDim {
		panic(fmt.Sprintf("mlaas: screener canvas %d != model input %d", cfg.Screener.InputDim(), model.InputDim))
	}
	return newNodeServer(&singleProvider{
		info: ModelInfo{
			ID:            DefaultModelID,
			Name:          cfg.Name,
			Arch:          string(model.Arch),
			Classes:       model.NumClasses,
			InputDim:      model.InputDim,
			Params:        model.ParamCount(),
			Screened:      cfg.Screener != nil,
			Loaded:        true,
			ResidentBytes: model.WeightBytes(),
		},
		eng: newEngine(model, cfg.Screener, cfg.MaxBatch, cfg.MaxConcurrent),
	}, cfg.ScreenPolicy)
}

// NewRegistryServer serves every checkpoint hosted by reg. The server takes
// ownership of the registry: Close (and Serve on shutdown) closes it.
func NewRegistryServer(reg *Registry) *Server {
	return newNodeServer(reg, reg.cfg.ScreenPolicy)
}

// Close stops the re-audit scheduler, drains the audit manager (running
// jobs checkpoint and are cancelled via their contexts), and then stops all
// model engines; queued and future requests fail with 503. The job store
// itself stays open — its owner closes it after Close returns. Safe to call
// more than once.
func (s *Server) Close() {
	s.once.Do(func() {
		if s.reaudit != nil {
			s.reaudit.Close()
		}
		if m := s.Audits(); m != nil {
			m.Close()
		}
		s.prov.Close()
	})
}

// Handler returns the HTTP handler for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/models/{id}/info", func(w http.ResponseWriter, r *http.Request) {
		s.handleInfo(w, r.PathValue("id"))
	})
	mux.HandleFunc("POST /v1/models/{id}/predict", func(w http.ResponseWriter, r *http.Request) {
		s.handlePredict(w, r, r.PathValue("id"))
	})
	// Audit-as-a-service routes (501 until EnableAudits): asynchronous
	// server-side audit jobs over the hosted models.
	mux.HandleFunc("POST /v1/models/{id}/audits", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmitAudit(w, r, r.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/audits", s.handleListAudits)
	mux.HandleFunc("GET /v1/audits/{id}", s.handleGetAudit)
	mux.HandleFunc("GET /v1/audits/{id}/checkpoint", s.handleExportCheckpoint)
	mux.HandleFunc("DELETE /v1/audits/{id}", s.handleDeleteAudit)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// Tenancy routes (501 until EnableTenancy; a gateway fans the question
	// out to the nodes, whose ledgers are the record).
	mux.HandleFunc("GET /v1/tenants/{id}/usage", func(w http.ResponseWriter, r *http.Request) {
		s.handleTenantUsage(w, r, r.PathValue("id"))
	})
	// Legacy single-model routes: aliases for the default model.
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		s.handleInfo(w, "")
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		s.handlePredict(w, r, "")
	})
	// Default-model audit alias, in the same spirit as /v1/predict.
	mux.HandleFunc("POST /v1/audits", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmitAudit(w, r, "")
	})
	// The tenancy middleware wraps every route: it always captures the
	// caller's bearer token for pass-through (gateways forward it to nodes),
	// and enforces auth + rate limits on mutating routes once EnableTenancy
	// has run.
	return s.withTenancy(mux)
}

// infoResponse is the /v1/info and /v1/models/{id}/info payload.
type infoResponse struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Arch     string `json:"arch,omitempty"`
	Classes  int    `json:"classes"`
	InputDim int    `json:"input_dim"`
	MaxBatch int    `json:"max_batch"`
	// Screened advertises inline request screening on this model's predict
	// route. Omitted (false) by servers without a screener.
	Screened bool `json:"screened,omitempty"`
	// ScreenPolicy is the server's flagged-row policy ("annotate" or
	// "reject"), present only when Screened is set.
	ScreenPolicy string `json:"screen_policy,omitempty"`
	// Wire lists the predict content types the model's predict route accepts
	// besides application/json (today: ContentTypeBinaryPredict). Omitted by
	// servers that predate the field; those are spoken to in JSON.
	Wire []string `json:"wire,omitempty"`
}

// modelsResponse is the /v1/models payload.
type modelsResponse struct {
	Default string      `json:"default"`
	Models  []ModelInfo `json:"models"`
}

type predictRequest struct {
	Inputs [][]float64 `json:"inputs"`
	// Screen opts a single request out of (or redundantly into) inline
	// screening: absent means "screen when the model is screened". Clients
	// that only want raw confidences send false and pay nothing extra.
	Screen *bool `json:"screen,omitempty"`
}

// Screening is one row's wire-form screening outcome.
type Screening struct {
	// Score is the suspicion score in [0,1].
	Score float64 `json:"score"`
	// Flagged reports Score >= Threshold.
	Flagged bool `json:"flagged"`
	// Threshold is the server's flagging cutoff.
	Threshold float64 `json:"threshold"`
	// Rejected is set under the reject policy when the row's confidences
	// were withheld (the row's confidences entry is null).
	Rejected bool `json:"rejected,omitempty"`
	// Error describes the rejection (set only with Rejected).
	Error string `json:"error,omitempty"`
}

type predictResponse struct {
	Confidences [][]float64 `json:"confidences"`
	// Screening holds one entry per input row when the request was
	// screened; absent otherwise.
	Screening []Screening `json:"screening,omitempty"`
}

// errorResponse is the uniform error envelope: every non-2xx response
// carries {"error": "..."}. Tenancy-plane rejections additionally carry a
// machine-readable code ("unauthorized", "rate_limited", "quota_exhausted",
// "tenant_forbidden") and, for quota rejections, the exact oracle-query
// accounting.
type errorResponse struct {
	Error string `json:"error"`
	// Code classifies tenancy rejections; absent on other errors.
	Code string `json:"code,omitempty"`
	// Queries is the tenant's oracle-query spend as metered by
	// oracle.Counter, present on quota_exhausted envelopes.
	Queries int64 `json:"queries,omitempty"`
	// Quota is the tenant's configured budget, present on quota_exhausted
	// envelopes.
	Quota int64 `json:"quota,omitempty"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modelsResponse{
		Default: s.prov.DefaultID(),
		Models:  s.prov.Models(),
	})
}

func (s *Server) handleInfo(w http.ResponseWriter, id string) {
	info, err := s.prov.Info(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := infoResponse{
		ID:       info.ID,
		Name:     info.Name,
		Arch:     info.Arch,
		Classes:  info.Classes,
		InputDim: info.InputDim,
		MaxBatch: s.prov.MaxBatch(),
		Screened: info.Screened,
	}
	if info.Screened {
		resp.ScreenPolicy = s.screenPolicy
	}
	if servesBinaryPredict(resp.MaxBatch, info.InputDim) {
		resp.Wire = []string{ContentTypeBinaryPredict}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePredict serves one predict, on a node and on a gateway alike: the
// body is read into a wireBufPool buffer, its rows decoded into rowPool
// storage, the provider answers into that storage's confidence rows (a node's
// engine writes them, a gateway's node client decodes into them), and the
// reply is encoded over the request's bytes — so no allocation grows with the
// body. The storage goes back to rowPool only once the provider has returned
// success, and only after the reply is encoded.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, id string) {
	info, err := s.prov.Info(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	maxBatch := s.prov.MaxBatch()
	// The request's Content-Type picks the spelling of both bodies: the
	// answer goes out in the type the question came in.
	contentType := predictContentType(r.Header.Get("Content-Type"))
	// Bound the request body by what MaxBatch samples of InputDim float64s
	// can need in that spelling.
	limit := predictBodyLimit(contentType, maxBatch, info.InputDim)
	// One pooled buffer carries the request body in and, once the rows are
	// in the tensor, the response body out: nothing on the way allocates in
	// proportion to the body.
	buf := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(buf)
	body, err := readCapped(*buf, r.Body, r.ContentLength, limit)
	*buf = body
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "read body: " + err.Error()})
		return
	}
	if int64(len(body)) > limit {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request too large"})
		return
	}
	// Screening defaults ON for screened models; a request may opt out
	// ("screen": false) and pay nothing. Unscreened models ignore the flag.
	// The rows and their confidences land in pooled storage, which goes back
	// only on success (see rowPool): a failed predict may leave them queued
	// for a worker.
	rows := rowPool.Get().(*predictRows)
	x, screen, err := parsePredictRequest(rows.in, contentType, body, maxBatch, info.InputDim)
	if err != nil {
		rowPool.Put(rows)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	n := x.Dim(0)
	rows.in, rows.out = x.Data, rowsInto(rows.out, n*info.Classes)
	probs, scores, err := s.prov.predict(r.Context(), id, x, tensor.FromSlice(rows.out, n, info.Classes), screen)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer rowPool.Put(rows)
	var screening []Screening
	if scores != nil {
		reject := s.screenPolicy == ScreenReject
		screening = make([]Screening, len(scores))
		for i, sc := range scores {
			screening[i] = Screening{Score: sc.Score, Flagged: sc.Flagged, Threshold: sc.Threshold}
			if reject && sc.Flagged {
				// A structured 403-style error row: confidences withheld (null
				// in the JSON), the screening block says why. The batch itself
				// still succeeds — unflagged rows are served normally.
				screening[i].Rejected = true
				screening[i].Error = fmt.Sprintf("input flagged by backdoor screening (score %.3f >= threshold %.3f)",
					sc.Score, sc.Threshold)
			}
		}
	}
	// The body is complete before the status line goes out, so a model that
	// emits NaN or ±Inf — which JSON cannot spell and the binary frame
	// therefore refuses to — is a clean 500, never a 200 with half a document
	// behind it.
	body, err = appendPredictResponse(body[:0], contentType, probs.Data, info.Classes, screening)
	*buf = body
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "model produced a non-finite confidence: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is nobody to tell.
	_, _ = w.Write(body)
}

// writeError maps provider and audit-backend errors onto the wire error
// envelope: unknown model or audit job -> 404, unauditable model -> 400,
// audits not enabled -> 501, audit queue full -> 429, no checkpoint yet ->
// 204 (no body), closed/cancelled -> 503, anything else (e.g. a checkpoint
// that fails to load) -> 500. Gateway errors carry their own mapping: a
// *nodeError passes the originating node's status (and Retry-After hint)
// through unchanged, and ErrNoHealthyReplica is a 503 — the routing layer's
// structured "this model is currently unservable", distinct from 404 (never
// hosted) and from a hang.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var ne *nodeError
	var qe *jobstore.QuotaError
	switch {
	case errors.As(err, &qe):
		// The structured 402-style quota envelope: queries carries the spend
		// exactly as oracle.Counter metered it.
		writeJSON(w, http.StatusPaymentRequired, errorResponse{
			Error: err.Error(), Code: "quota_exhausted", Queries: qe.Spent, Quota: qe.Quota,
		})
	case errors.Is(err, ErrUnknownTenant):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrTenancyDisabled):
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: err.Error()})
	case errors.As(err, &ne):
		if ne.retryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", ne.retryAfter))
		}
		writeJSON(w, ne.code, errorResponse{Error: ne.Error()})
	case errors.Is(err, ErrNoHealthyReplica):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrUnknownModel), errors.Is(err, audit.ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	case errors.Is(err, errNotAuditable):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.Is(err, audit.ErrNoCheckpoint):
		// The job exists, there is just no state to ship yet.
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, audit.ErrTerminalJob):
		// Checkpoint export against a finished job: a structured conflict,
		// not a missing resource — the job is there, it just has a verdict
		// instead of resumable state.
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrAuditsDisabled):
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: err.Error()})
	case errors.Is(err, audit.ErrQueueFull):
		// 429 without a Retry-After header leaves fleet clients guessing
		// (and, before the client-side jitter fix, retrying in lockstep).
		// The hint is derived from current queue depth over worker count —
		// see audit.Manager.RetryAfter.
		if m := s.Audits(); m != nil {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(m.RetryAfter().Seconds())))
		}
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, errEngineClosed), errors.Is(err, audit.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server closed"})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "cancelled: " + err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", contentTypeJSON)
	w.WriteHeader(status)
	// Encoding errors past the header cannot be reported to the client;
	// they surface as a truncated body on the client side.
	_ = json.NewEncoder(w).Encode(v)
}

// Serve listens on addr until ctx is cancelled, then shuts down gracefully
// and stops the model engines. It reports the bound address through ready
// (useful with addr ":0").
func (s *Server) Serve(ctx context.Context, addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("mlaas: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		s.Close()
		if err != nil {
			return fmt.Errorf("mlaas: shutdown: %w", err)
		}
		return nil
	case err := <-errCh:
		s.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("mlaas: serve: %w", err)
	}
}
