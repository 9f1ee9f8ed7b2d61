package mlaas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bprom/internal/audit"
	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

// NoRetries disables retries explicitly. ClientConfig.Retries treats zero
// as "use the default", so callers that want exactly one attempt per
// request pass this sentinel.
const NoRetries = -1

// maxInflightChunks bounds parallel sub-requests when Predict splits an
// oversized batch across multiple predict calls.
const maxInflightChunks = 4

// ClientConfig tunes the HTTP oracle.
type ClientConfig struct {
	// Timeout is the per-request deadline. Default 30s; a fleet scan
	// (`bprom audit -timeout`) tightens it so a hung node is cut off sooner.
	Timeout time.Duration
	// Retries is the number of retry attempts after the first failure of a
	// predict, for the failures classify calls shed, nodeFault or
	// unreachable (429, 5xx other than 501, no reply, a malformed reply).
	// Zero means "use the default" (2); pass NoRetries (or any negative
	// value) to disable retries entirely. Retrying stops immediately once
	// the caller's context is cancelled or past its deadline. Backoff is
	// exponential from 100ms with a 5s ceiling and jitter, floored by the
	// server's Retry-After hint when one is sent.
	Retries int
	// AuditPoll is the least time between two WaitAudit requests. Each
	// request is held server-side until the job is terminal or Timeout/2
	// has passed, so against a current endpoint a hold ends the wait or the
	// next request goes at once; an endpoint that answers at once is polled
	// at this interval. Default 250ms.
	AuditPoll time.Duration
	// APIKey, when set, is sent as Authorization: Bearer <key> on every
	// request — required for mutating routes on endpoints started with an
	// API-key file. A WithAPIKey context value overrides it per request
	// (the gateway forwards the calling tenant's credential that way).
	APIKey string
	// HTTPClient overrides the transport (tests).
	HTTPClient *http.Client
}

func (c *ClientConfig) defaults() {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0 // NoRetries and friends: first attempt only
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.AuditPoll <= 0 {
		c.AuditPoll = 250 * time.Millisecond
	}
	if c.HTTPClient == nil {
		c.HTTPClient = defaultHTTPClient
	}
}

// defaultHTTPClient is what every client without a ClientConfig.HTTPClient
// shares: http.DefaultTransport's settings, except that
//   - a host may keep as many idle connections as Predict opens against it at
//     once. With the stock limit of 2, each chunked generation closed two of
//     its four connections on completion and dialled them again for the next
//     one;
//   - every connection is dialled as a copyConn, so that request bodies are
//     written through a pooled copy buffer. A caller-supplied HTTPClient
//     keeps net/http's own, which allocates one per request body.
var defaultHTTPClient = func() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxInflightChunks
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &copyConn{conn}, nil
	}
	return &http.Client{Transport: t}
}()

// copyConnBufPool holds copyConn's copy buffers.
var copyConnBufPool = sync.Pool{New: func() any {
	buf := make([]byte, 32<<10) // io.Copy's own buffer size
	return &buf
}}

// copyConn is a connection whose ReadFrom — what net/http's transport reaches
// through io.Copy when it writes a request body larger than its write buffer
// — copies through a pooled buffer. A *net.TCPConn copies a body that is no
// file or socket through a buffer it allocates for each call.
type copyConn struct{ net.Conn }

// connWriter is copyConn without its ReadFrom: the writer io.CopyBuffer must
// see so that it uses the buffer it is given.
type connWriter copyConn

func (c *copyConn) ReadFrom(r io.Reader) (int64, error) {
	buf := copyConnBufPool.Get().(*[]byte)
	defer copyConnBufPool.Put(buf)
	return io.CopyBuffer((*connWriter)(c), r, *buf)
}

// Client is an oracle.Oracle backed by one model on a remote MLaaS
// endpoint. It is safe for concurrent use; batches larger than the
// endpoint's advertised max_batch are split into parallel chunked requests
// transparently. Dial binds it to the endpoint's default model, DialModel
// to a specific one — a fleet audit holds one Client per hosted model.
type Client struct {
	base         string
	modelID      string // "" = default model (legacy un-prefixed routes)
	cfg          ClientConfig
	name         string
	classes      int
	inputDim     int
	maxBatch     int
	screened     bool
	screenPolicy string
	contentType  string // spelling of predict requests: binary where advertised, else JSON
}

var (
	_ oracle.Oracle        = (*Client)(nil)
	_ oracle.BatchLimiter  = (*Client)(nil)
	_ oracle.IntoPredictor = (*Client)(nil)
)

// Dial fetches /v1/info and returns a client bound to the endpoint's
// default model.
func Dial(ctx context.Context, baseURL string, cfg ClientConfig) (*Client, error) {
	return dial(ctx, baseURL, "", cfg)
}

// DialModel fetches /v1/models/{id}/info and returns a client bound to
// that hosted model.
func DialModel(ctx context.Context, baseURL, modelID string, cfg ClientConfig) (*Client, error) {
	if modelID == "" {
		return nil, fmt.Errorf("mlaas: empty model id (use Dial for the default model)")
	}
	return dial(ctx, baseURL, modelID, cfg)
}

func dial(ctx context.Context, baseURL, modelID string, cfg ClientConfig) (*Client, error) {
	cfg.defaults()
	c := &Client{base: baseURL, modelID: modelID, cfg: cfg}
	var info infoResponse
	if err := c.getJSON(ctx, c.route("info"), &info); err != nil {
		return nil, err
	}
	if info.Classes < 2 || info.InputDim < 1 {
		return nil, fmt.Errorf("mlaas: implausible endpoint metadata %+v", info)
	}
	c.name = info.Name
	c.classes = info.Classes
	c.inputDim = info.InputDim
	c.maxBatch = info.MaxBatch // 0 for endpoints that do not advertise one
	c.screened = info.Screened
	c.screenPolicy = info.ScreenPolicy
	// Endpoints that list the binary predict frame get it; anything else —
	// an older server, someone else's — is spoken to in JSON.
	c.contentType = contentTypeJSON
	if slices.Contains(info.Wire, ContentTypeBinaryPredict) {
		c.contentType = ContentTypeBinaryPredict
	}
	return c, nil
}

// ModelList is the decoded /v1/models listing.
type ModelList struct {
	// Default is the id served by the legacy un-prefixed routes.
	Default string `json:"default"`
	// Models lists every hosted model, sorted by id.
	Models []ModelInfo `json:"models"`
}

// ListModels fetches /v1/models: the ids, shapes, and hot-set state of
// every model the endpoint hosts. Fleet audits start here, then DialModel
// each id.
func ListModels(ctx context.Context, baseURL string, cfg ClientConfig) (ModelList, error) {
	cfg.defaults()
	c := &Client{base: baseURL, cfg: cfg}
	var list ModelList
	if err := c.getJSON(ctx, baseURL+"/v1/models", &list); err != nil {
		return ModelList{}, err
	}
	return list, nil
}

// route builds the endpoint path for this client's model: the legacy
// un-prefixed routes for the default model, /v1/models/{id}/... otherwise.
func (c *Client) route(leaf string) string {
	if c.modelID == "" {
		return c.base + "/v1/" + leaf
	}
	return c.base + "/v1/models/" + url.PathEscape(c.modelID) + "/" + leaf
}

// StatusError is a non-2xx endpoint response, carrying the HTTP status
// code and the decoded error envelope. Callers that must distinguish
// rejection classes (e.g. a fleet audit telling "model incompatible with
// the detector" from "queue full") unwrap it with errors.As; this package
// sorts it with classify. Every client request path — metadata, predict,
// audit routes — surfaces non-2xx responses this way.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// URL is the request URL.
	URL string
	// Msg is the error-envelope message (may be empty).
	Msg string
	// RetryAfter is the response's Retry-After hint in whole seconds
	// (0 when the server sent none). The gateway propagates it across the
	// routing hop so end clients back off on the saturated node's schedule.
	RetryAfter int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("mlaas: %s returned %d (%s)", e.URL, e.Code, e.Msg)
}

// failureClass is what a failed endpoint call means. It is the one policy
// the predict client, WaitAudit, the gateway's routes and its migration
// supervisor share (docs/API.md, "Failure classes").
type failureClass int

const (
	callerGone  failureClass = iota // the caller's own context ended: nobody to answer
	shed                            // 429: the endpoint is pushing back
	final                           // any other 4xx, or 501: asking again gets the same answer
	nodeFault                       // any other 5xx: the endpoint is broken for now
	unreachable                     // no HTTP reply at all, a per-request timeout included
)

// classify sorts one failed call made under the caller's ctx. Whether the
// caller is gone is read from ctx itself, not from err: a hung endpoint
// trips the client's own per-request Timeout while ctx is still live, and
// that is the endpoint's failure.
func classify(ctx context.Context, err error) failureClass {
	if ctx.Err() != nil {
		return callerGone
	}
	var se *StatusError
	switch {
	case !errors.As(err, &se):
		return unreachable
	case se.Code == http.StatusTooManyRequests:
		return shed
	case se.Code >= 500 && se.Code != http.StatusNotImplemented:
		return nodeFault
	default:
		return final
	}
}

// getJSON fetches one metadata URL and decodes the response (no retries:
// metadata fetches are cheap for the caller to re-issue).
func (c *Client) getJSON(ctx context.Context, u string, v any) error {
	return c.sendJSON(ctx, http.MethodGet, u, nil, v)
}

// ModelID reports which hosted model this client queries ("" for the
// endpoint's default model).
func (c *Client) ModelID() string { return c.modelID }

// Name reports the endpoint's display name for the bound model.
func (c *Client) Name() string { return c.name }

// NumClasses reports the bound model's label-space size.
func (c *Client) NumClasses() int { return c.classes }

// InputDim reports the bound model's flattened input width.
func (c *Client) InputDim() int { return c.inputDim }

// MaxBatch reports the endpoint's advertised per-request batch limit
// (0 when the endpoint does not advertise one). It implements
// oracle.BatchLimiter; callers may still Predict larger batches — they are
// chunked transparently.
func (c *Client) MaxBatch() int { return c.maxBatch }

// Screened reports whether the endpoint advertises inline request
// screening for the bound model.
func (c *Client) Screened() bool { return c.screened }

// ScreenPolicy reports the endpoint's flagged-row policy ("annotate" or
// "reject"; "" when the model is unscreened or the endpoint predates
// screening).
func (c *Client) ScreenPolicy() string { return c.screenPolicy }

// Predict sends the batch to the endpoint, retrying transient failures.
// Batches beyond the endpoint's max_batch are chunked into multiple
// requests (at most maxInflightChunks in flight) and reassembled in order.
// Generation-batched audits lean on exactly this: one fused CMA-ES
// generation arrives here as a single λ×k-row call and leaves as parallel
// full-width requests, instead of λ narrow sequential round-trips.
//
// Against a screened endpoint, Predict opts out of screening on the wire
// ("screen": false): the annotations would be discarded here anyway, and
// the opt-out keeps oracle traffic (audits, prompt training) at exactly one
// forward pass per row. Use PredictScreened to get the screening verdicts.
// Should the server reject a row regardless (reject policy), Predict
// reports it as an error.
func (c *Client) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	out, screening, err := c.predict(ctx, x, nil, false)
	if err == nil {
		err = rejectedRow(screening)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto is Predict with every reply decoded straight into dst, [N,
// NumClasses] storage the caller owns (oracle.IntoPredictor). A dst of any
// other shape is an error, and nothing is sent. PredictInto returns only
// once every chunk request has, so after an error nothing writes dst any more;
// its rows are then unspecified.
func (c *Client) PredictInto(ctx context.Context, dst, x *tensor.Tensor) error {
	_, screening, err := c.predict(ctx, x, dst, false)
	if err != nil {
		return err
	}
	return rejectedRow(screening)
}

// rejectedRow is the error for the first row the server withheld under its
// reject policy, or nil.
func rejectedRow(screening []Screening) error {
	for i := range screening {
		if screening[i].Rejected {
			return fmt.Errorf("mlaas: input row %d rejected by server-side screening (score %.3f >= threshold %.3f)",
				i, screening[i].Score, screening[i].Threshold)
		}
	}
	return nil
}

// PredictScreened is Predict with inline screening requested: it returns
// the confidence rows plus one Screening entry per input row. On endpoints
// (or individual models) without screening the slice is nil. Under the
// server's reject policy, flagged rows come back with Rejected set and
// zeroed confidences — callers must check before using those rows. Batches
// beyond max_batch are chunked exactly like Predict.
func (c *Client) PredictScreened(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []Screening, error) {
	return c.predict(ctx, x, nil, true)
}

// predict sends x and decodes the replies into out, [N, classes] caller
// storage, or nil for a fresh tensor; it returns out. It waits for every
// chunk request, so nothing writes out after it returns.
func (c *Client) predict(ctx context.Context, x, out *tensor.Tensor, screen bool) (*tensor.Tensor, []Screening, error) {
	if x.Rank() != 2 || x.Dim(1) != c.inputDim {
		return nil, nil, fmt.Errorf("mlaas: input shape %v, want [N %d]", x.Shape(), c.inputDim)
	}
	n := x.Dim(0)
	// Each request's reply is decoded straight into its rows of out.
	if out == nil {
		out = tensor.New(n, c.classes)
	} else if out.Rank() != 2 || out.Dim(0) != n || out.Dim(1) != c.classes {
		return nil, nil, fmt.Errorf("mlaas: destination shape %v, want [%d %d]", out.Shape(), n, c.classes)
	}
	if c.maxBatch <= 0 || n <= c.maxBatch {
		screening, err := c.predictBatch(ctx, x.Data, out.Data, screen)
		if err != nil {
			return nil, nil, err
		}
		return out, screening, nil
	}
	var screening []Screening
	// The chunks capture rows, not out: a reassigned parameter that a
	// goroutine captures costs a heap cell on every call.
	rows := out.Data
	sem := make(chan struct{}, maxInflightChunks)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for start := 0; start < n; start += c.maxBatch {
		end := start + c.maxBatch
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed {
				return
			}
			scr, err := c.predictBatch(ctx, x.Data[start*c.inputDim:end*c.inputDim], rows[start*c.classes:end*c.classes], screen)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("mlaas: chunk [%d:%d]: %w", start, end, err)
				}
				mu.Unlock()
				return
			}
			if scr != nil {
				mu.Lock()
				if screening == nil {
					screening = make([]Screening, n)
				}
				copy(screening[start:end], scr)
				mu.Unlock()
			}
		}(start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return out, screening, nil
}

// Retry backoff bounds: exponential from retryBaseBackoff, never above
// retryMaxBackoff. The old backoff was pure 1<<attempt * 100ms — uncapped
// (attempt 10 slept 51s) and jitterless, so a fleet of clients bounced off
// a busy endpoint in lockstep, re-colliding forever.
const (
	retryBaseBackoff = 100 * time.Millisecond
	retryMaxBackoff  = 5 * time.Second
)

// jitteredBackoff is capped exponential backoff: base doubled doublings
// times, clamped to ceiling, with the upper half jittered (d/2 + uniform[0,
// d/2]) so concurrent retriers decorrelate while the expected wait keeps
// its exponential shape. Client retries and the gateway's migration
// supervisor share it.
func jitteredBackoff(base, ceiling time.Duration, doublings int) time.Duration {
	d := base
	for i := 0; i < doublings && d < ceiling; i++ {
		d *= 2
	}
	d = min(d, ceiling)
	return d/2 + rand.N(d/2+1)
}

// retryBackoff computes the sleep before retry attempt (1-based). A server
// Retry-After hint floors the result — the server knows its backlog better
// than our schedule does.
func retryBackoff(attempt int, hint time.Duration) time.Duration {
	return max(hint, jitteredBackoff(retryBaseBackoff, retryMaxBackoff, attempt-1))
}

// parseRetryAfter reads a Retry-After header in delay-seconds form (the
// only form this server emits); anything else means "no hint".
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(h)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// predictBatch sends one already-sized batch of inputs with the retry loop
// and decodes the reply into out, len(out)/classes rows.
func (c *Client) predictBatch(ctx context.Context, inputs, out []float64, screen bool) ([]Screening, error) {
	payload := newRequestPayload()
	defer payload.release()
	// Screening is server-default-on, so the only flag worth bytes is the
	// opt-out — and only against endpoints that actually screen.
	encoded, err := appendPredictRequest((*payload.buf)[:0], c.contentType, inputs, c.inputDim, !screen && c.screened)
	*payload.buf = encoded
	if err != nil {
		return nil, fmt.Errorf("mlaas: encode batch: %w", err)
	}
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(retryBackoff(attempt, hint)):
			case <-ctx.Done():
				return nil, fmt.Errorf("mlaas: %w (last error: %v)", ctx.Err(), lastErr)
			}
		}
		scr, permanent, err := c.predictOnce(ctx, payload, out)
		if err == nil {
			return scr, nil
		}
		lastErr = err
		// A gone caller is never retried: a deleted audit job or an aborted
		// fleet run must stop querying at once instead of burning the retry
		// budget. The reply may have landed before the cancellation did, so
		// the error names the cancellation itself rather than the reply.
		class := classify(ctx, err)
		if class == callerGone {
			return nil, fmt.Errorf("mlaas: %w (last error: %v)", ctx.Err(), lastErr)
		}
		if class == final || permanent {
			break
		}
		hint = 0
		var se *StatusError
		if errors.As(err, &se) {
			hint = time.Duration(se.RetryAfter) * time.Second
		}
	}
	return nil, fmt.Errorf("mlaas: predict failed: %w", lastErr)
}

// requestPayload is one encoded predict request, shared by every attempt
// predictBatch makes. net/http may still be writing a request body after the
// round trip has returned — a node that answers 404, 401, 413 or 429 early,
// before reading the body, is enough — and closes the body when it is done.
// So the buffer goes back to wireBufPool only once predictBatch has released
// its reference and the transport has closed every body made over it.
type requestPayload struct {
	buf  *[]byte
	refs atomic.Int32
}

// newRequestPayload returns an empty payload over a pooled buffer, holding
// the caller's reference.
func newRequestPayload() *requestPayload {
	p := &requestPayload{buf: wireBufPool.Get().(*[]byte)}
	p.refs.Store(1)
	return p
}

func (p *requestPayload) release() {
	if p.refs.Add(-1) == 0 {
		wireBufPool.Put(p.buf)
	}
}

// body returns a request body over the payload, holding a reference until
// it is closed.
func (p *requestPayload) body() io.ReadCloser {
	p.refs.Add(1)
	b := &payloadBody{p: p}
	b.r.Reset(*p.buf)
	return b
}

// errBodyClosed is what a request body read after its Close returns.
var errBodyClosed = errors.New("mlaas: read from a closed request body")

// payloadBody is one request's body over a requestPayload. The lock makes
// Close wait out a Read in progress and fail every later one, so that no
// read of the buffer can follow its release, whichever goroutine closes.
type payloadBody struct {
	mu sync.Mutex
	p  *requestPayload // nil once closed
	r  bytes.Reader
}

func (b *payloadBody) Read(dst []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.p == nil {
		return 0, errBodyClosed
	}
	return b.r.Read(dst)
}

func (b *payloadBody) Close() error {
	b.mu.Lock()
	p := b.p
	b.p = nil
	b.mu.Unlock()
	if p != nil {
		p.release()
	}
	return nil
}

// --- Audit-as-a-service helpers -----------------------------------------------------

// Healthz fetches GET /v1/healthz: endpoint liveness plus whether the
// server runs the audit service. Fleet audits use it as a preflight before
// submitting jobs.
func Healthz(ctx context.Context, baseURL string, cfg ClientConfig) (Health, error) {
	cfg.defaults()
	c := &Client{base: baseURL, cfg: cfg}
	var h Health
	if err := c.getJSON(ctx, baseURL+"/v1/healthz", &h); err != nil {
		return Health{}, err
	}
	return h, nil
}

// ServerAssignedInspectID lets the server pick the inspection RNG stream
// for a submitted audit job (its job sequence number). Pass an explicit
// non-negative id instead when verdicts must be reproducible against an
// in-process Detector.Inspect call.
const ServerAssignedInspectID = -1

// AuditModel submits an asynchronous server-side audit job for the bound
// model (POST /v1/models/{id}/audits) and returns the queued job snapshot.
// The server audits the model with ITS detector artifact in-process — no
// probe traffic crosses the wire. inspectID seeds the inspection RNG
// stream; pass ServerAssignedInspectID to let the server choose. Poll the
// returned job with GetAudit, or block with WaitAudit.
func (c *Client) AuditModel(ctx context.Context, inspectID int) (audit.Job, error) {
	return c.submitAudit(ctx, inspectID, nil)
}

// submitAudit is the one submission body behind AuditModel and
// AuditModelResume (and the gateway's routed submissions): inspect_id is
// sent only when non-negative, the resume block only when present.
func (c *Client) submitAudit(ctx context.Context, inspectID int, resume *AuditResume) (audit.Job, error) {
	req := struct {
		InspectID *int         `json:"inspect_id,omitempty"`
		Resume    *AuditResume `json:"resume,omitempty"`
	}{Resume: resume}
	if inspectID >= 0 {
		req.InspectID = &inspectID
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return audit.Job{}, fmt.Errorf("mlaas: encode request: %w", err)
	}
	var job audit.Job
	if err := c.sendJSON(ctx, http.MethodPost, c.route("audits"), payload, &job); err != nil {
		return audit.Job{}, err
	}
	return job, nil
}

// GetAudit fetches one audit job snapshot (GET /v1/audits/{id}).
func (c *Client) GetAudit(ctx context.Context, jobID string) (audit.Job, error) {
	return c.getAudit(ctx, jobID, 0)
}

// getAudit fetches one snapshot; wait > 0 asks the endpoint to hold the
// request until the job is terminal or wait has passed (?wait=).
func (c *Client) getAudit(ctx context.Context, jobID string, wait time.Duration) (audit.Job, error) {
	u := c.base + "/v1/audits/" + url.PathEscape(jobID)
	if wait > 0 {
		u += "?wait=" + wait.String()
	}
	var job audit.Job
	if err := c.getJSON(ctx, u, &job); err != nil {
		return audit.Job{}, err
	}
	return job, nil
}

// ListAudits fetches every audit job the endpoint holds, in submission
// order (GET /v1/audits).
func (c *Client) ListAudits(ctx context.Context) ([]audit.Job, error) {
	var resp auditListResponse
	if err := c.getJSON(ctx, c.base+"/v1/audits", &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// CancelAudit cancels and removes an audit job (DELETE /v1/audits/{id}):
// a queued job never runs, a running one is context-cancelled server-side.
// It returns the job's snapshot as of deletion.
func (c *Client) CancelAudit(ctx context.Context, jobID string) (audit.Job, error) {
	var job audit.Job
	if err := c.sendJSON(ctx, http.MethodDelete, c.base+"/v1/audits/"+url.PathEscape(jobID), nil, &job); err != nil {
		return audit.Job{}, err
	}
	return job, nil
}

// AuditResume is the optional resume block of an audit submission: the
// wire form of "continue this audit here". A gateway's migration
// supervisor fills it from a dead node's exported checkpoint; in-process
// callers can use it to move a job between managers.
type AuditResume struct {
	// Checkpoint is a wire-exported checkpoint frame (the jobstore CRC
	// frame around an encoded bprom.Checkpoint), base64 in JSON. Empty
	// restarts the audit from generation zero while still preserving the
	// job's identity fields below.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// Tenant attributes the resumed job to the tenant that submitted the
	// original, so quota accounting and usage listings follow the job
	// across nodes.
	Tenant string `json:"tenant,omitempty"`
	// Source names the job this one continues (the gateway's namespaced id
	// of the original, e.g. "n0.a3"); it lands in the new job's
	// migrated_from field.
	Source string `json:"source,omitempty"`
}

// maxCheckpointWire bounds a checkpoint-export response body. It matches
// the journal's frame-payload ceiling plus header; real checkpoints are
// kilobytes.
const maxCheckpointWire = (1 << 26) + 64

// CheckpointExport is a running audit job's wire-exported resume state
// (GET /v1/audits/{id}/checkpoint): the CRC-framed checkpoint bytes plus
// the metadata a migration supervisor needs to resubmit the job elsewhere.
type CheckpointExport struct {
	// Frame is the opaque CRC-framed checkpoint. The client deliberately
	// does NOT validate the CRC — the node that resumes from the frame
	// does, so corruption anywhere in transit is caught exactly once, at
	// the point where acting on it would do harm.
	Frame []byte
	// Generation and Queries mirror the checkpoint's progress metadata
	// (X-Audit-Generation / X-Audit-Queries).
	Generation int
	Queries    int64
	// ModelID, InspectID and Tenant identify the job, so a supervisor can
	// resubmit without a second metadata fetch.
	ModelID   string
	InspectID int
	Tenant    string
}

// ExportCheckpoint fetches a running job's newest checkpoint
// (GET /v1/audits/{id}/checkpoint). A job that exists but has not
// completed a generation yet answers 204, surfaced as audit.ErrNoCheckpoint;
// a finished job is a 409 *StatusError (nothing to resume), an unknown one
// a 404.
func (c *Client) ExportCheckpoint(ctx context.Context, jobID string) (CheckpointExport, error) {
	reqCtx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	u := c.base + "/v1/audits/" + url.PathEscape(jobID) + "/checkpoint"
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, u, nil)
	if err != nil {
		return CheckpointExport{}, fmt.Errorf("mlaas: build request: %w", err)
	}
	resp, err := c.do(req)
	if err != nil {
		return CheckpointExport{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return CheckpointExport{}, fmt.Errorf("%w (job %s)", audit.ErrNoCheckpoint, jobID)
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, maxCheckpointWire))
	if err != nil {
		return CheckpointExport{}, fmt.Errorf("mlaas: reading checkpoint: %w", err)
	}
	exp := CheckpointExport{
		Frame:   frame,
		ModelID: resp.Header.Get("X-Audit-Model"),
		Tenant:  resp.Header.Get("X-Audit-Tenant"),
	}
	exp.Generation, _ = strconv.Atoi(resp.Header.Get("X-Audit-Generation"))
	exp.Queries, _ = strconv.ParseInt(resp.Header.Get("X-Audit-Queries"), 10, 64)
	exp.InspectID, _ = strconv.Atoi(resp.Header.Get("X-Audit-Inspect-Id"))
	return exp, nil
}

// AuditModelResume submits an audit job for the bound model that resumes
// from a wire-exported checkpoint (POST /v1/models/{id}/audits with a
// resume block). inspectID must be the ORIGINAL job's inspect id — the
// resumed search continues the same RNG stream, which is what makes the
// migrated verdict bit-identical to an uninterrupted run. A corrupt
// checkpoint still returns a job (the server accepts the submission and
// fails it with error_code "bad_checkpoint") rather than an error.
func (c *Client) AuditModelResume(ctx context.Context, inspectID int, resume AuditResume) (audit.Job, error) {
	return c.submitAudit(ctx, inspectID, &resume)
}

// WaitAudit long-polls an audit job until it reaches a terminal state and
// returns the final snapshot. Each request asks the endpoint to hold it for
// up to half of ClientConfig.Timeout (GET /v1/audits/{id}?wait=), so a
// running job costs one request per hold; ClientConfig.AuditPoll is the
// floor between requests, which is the polling interval against an endpoint
// that answers at once. A job that ends StateFailed is returned with a nil
// error — the failure is the job's Error field; WaitAudit's own error means
// the polling itself broke (endpoint unreachable, job deleted, ctx
// cancelled).
//
// A poll that fails with shed or nodeFault (classify) — what a gateway
// answers while the node holding the job flaps — does not abort the wait:
// the job is still running somewhere, so the loop keeps polling on its
// normal cadence. Any other failure returns at once: a final status (404
// deleted job, 501 audits disabled), an unreachable endpoint, or the
// caller's own cancel, even mid-blip.
func (c *Client) WaitAudit(ctx context.Context, jobID string) (audit.Job, error) {
	ticker := time.NewTicker(c.cfg.AuditPoll)
	defer ticker.Stop()
	for {
		job, err := c.getAudit(ctx, jobID, c.cfg.Timeout/2)
		if err != nil {
			if class := classify(ctx, err); class != shed && class != nodeFault {
				return audit.Job{}, err
			}
		} else if job.State.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return audit.Job{}, fmt.Errorf("mlaas: waiting for audit %s: %w", jobID, ctx.Err())
		case <-ticker.C:
		}
	}
}

// sendJSON issues one request — payload, when non-nil, is its JSON body —
// and decodes the 2xx JSON response into v. No retries: metadata fetches
// are cheap to re-issue, and submissions are not idempotent from the
// caller's viewpoint.
func (c *Client) sendJSON(ctx context.Context, method, u string, payload []byte, v any) error {
	reqCtx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(reqCtx, method, u, body)
	if err != nil {
		return fmt.Errorf("mlaas: build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", contentTypeJSON)
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("mlaas: decode %s: %w", req.URL, err)
	}
	return nil
}

// do is the one round trip every request path shares: attach the API-key
// credential (the request context's WithAPIKey value when present — the
// pass-through across a gateway hop — else the client's configured APIKey),
// execute, and turn a non-2xx response into a *StatusError carrying the
// decoded error envelope and the Retry-After hint. On success the caller
// owns resp.Body.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	key := apiKeyFrom(req.Context())
	if key == "" {
		key = c.cfg.APIKey
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("mlaas: %s %s: %w", req.Method, req.URL, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return nil, &StatusError{
			Code:       resp.StatusCode,
			URL:        req.URL.String(),
			Msg:        er.Error,
			RetryAfter: int(parseRetryAfter(resp.Header.Get("Retry-After")).Seconds()),
		}
	}
	return resp, nil
}

// predictOnce sends one encoded batch and decodes the reply into out,
// len(out)/classes rows. Failures are classified by the caller, except for a
// reply that decodes but is not the answer asked for (wrong row or class
// count): permanent marks that one, as the endpoint would send it again.
func (c *Client) predictOnce(ctx context.Context, payload *requestPayload, out []float64) (_ []Screening, permanent bool, _ error) {
	n := len(out) / c.classes
	reqCtx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, c.route("predict"), nil)
	if err != nil {
		return nil, true, err
	}
	req.Body = payload.body()
	req.GetBody = func() (io.ReadCloser, error) { return payload.body(), nil }
	req.ContentLength = int64(len(*payload.buf))
	req.Header.Set("Content-Type", c.contentType)
	resp, err := c.do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	// The reply says how it is spelled; a server answers in the type it was
	// asked in, so this is the request's own unless something sits between.
	contentType := predictContentType(resp.Header.Get("Content-Type"))
	// Read no more than n rows can need in that spelling: Content-Length is
	// the server's word, the bound is ours.
	limit := predictReplyLimit(contentType, n, c.classes)
	buf := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(buf)
	body, err := readCapped(*buf, resp.Body, resp.ContentLength, limit)
	*buf = body
	if err != nil {
		return nil, false, fmt.Errorf("read response: %w", err)
	}
	if int64(len(body)) > limit {
		return nil, false, fmt.Errorf("decode response: reply to %d rows exceeds %d bytes", n, limit)
	}
	_, screening, malformed, err := parsePredictResponse(out, contentType, body, n, c.classes)
	return screening, err != nil && !malformed, err
}
