package mlaas

// Multi-node serving plane: the Gateway fronts N mlaas-server nodes as one
// endpoint speaking the exact wire API of a single node. It is the
// "millions of users" scale step — the single-process server is the node,
// and horizontal capacity comes from placing the checkpoint zoo across a
// fleet:
//
//	client ──▶ gateway ──▶ node n0 (mlaas-server, zoo shard)
//	                  ├──▶ node n1
//	                  └──▶ node n2
//
// Design:
//
//   - Placement is rendezvous (highest-random-weight) hashing of
//     (node, model): every model has a stable, uniformly-spread preference
//     order over the node set, and removing a node reassigns only the
//     models it owned — no global reshuffle, no ring state to persist. The
//     top Replication candidates that actually host the model form its
//     replica set; predicts rotate across them and fail over within a
//     request.
//   - Membership is health-checked: a background loop probes every node's
//     /v1/healthz (+ /v1/models, /v1/info) on HealthInterval, with
//     mark-down after MarkDownAfter consecutive failures and mark-up after
//     MarkUpAfter consecutive successes, so a flapping node neither serves
//     traffic nor bounces in and out of the pool per probe. Failed proxied
//     requests count against the same streak (passive detection), so a
//     dead node is usually down before the next probe tick.
//   - The Gateway itself implements the two seams the single-node Server
//     runs on — provider (listings, predicts) and auditBackend (audit jobs,
//     tenant usage, healthz) — so the HTTP layer (routes, envelopes,
//     screening fields, error mapping) is reused unchanged, which is what
//     keeps gateway responses bit-identical to a node's and testable as
//     such.
//   - Backpressure passes through: a node's 429 (audit queue full,
//     Retry-After hint) is retried on a replica for idempotent predicts,
//     and only when every replica sheds does the gateway return 429 with
//     the node's own Retry-After. Non-idempotent audit submissions are
//     never retried on another node.
//
// The gateway assumes a uniform fleet: nodes serve the same checkpoints
// for the ids they share and agree on screening policy. Model listings are
// sticky — a node's last-known zoo outlives its mark-down — so a model
// whose only hosts are down yields a structured 503 (ErrNoHealthyReplica),
// distinct from 404 (never hosted anywhere).

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bprom/internal/audit"
	"bprom/internal/jobstore"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// ErrNoHealthyReplica reports a model whose hosting nodes are all marked
// down (or shedding): the model exists in the fleet's last-known zoo but is
// currently unservable. The HTTP layer maps it to 503 — clients should
// retry; 404 stays reserved for ids no node has ever listed.
var ErrNoHealthyReplica = errors.New("mlaas: no healthy replica")

// nodeError is a backend node's non-2xx response carried across the
// routing hop: the gateway's HTTP layer re-emits the originating status
// code, message, and Retry-After hint so clients see the node's verdict
// (400 incompatible model, 404 stale listing, 429 queue full, ...) rather
// than a flattened gateway 500.
type nodeError struct {
	node       string
	code       int
	msg        string
	retryAfter int // seconds, 0 = no hint
}

func (e *nodeError) Error() string {
	msg := e.msg
	if msg == "" {
		msg = http.StatusText(e.code)
	}
	return fmt.Sprintf("node %s: %s", e.node, msg)
}

// GatewayConfig tunes the multi-node gateway.
type GatewayConfig struct {
	// Nodes lists the backend base URLs (e.g. "http://10.0.0.7:8100").
	// Order fixes the node names n0, n1, ... used in logs, job ids, and
	// placement hashing. At least one node must be healthy at NewGateway
	// time.
	Nodes []string
	// Replication is how many nodes serve each model (bounded by the number
	// of nodes actually hosting it). 1 (the default) shards the zoo with no
	// redundancy; hot or critical models get >1 so predicts survive a node
	// loss and spread across replicas. Default 1.
	Replication int
	// HealthInterval is the membership probe period. Default 2s.
	HealthInterval time.Duration
	// MarkDownAfter is how many consecutive failures (probes or proxied
	// requests) mark a node down. Default 2.
	MarkDownAfter int
	// MarkUpAfter is how many consecutive successful probes bring a
	// marked-down node back. Default 2. A node's very first successful
	// probe marks it up immediately, so a fresh gateway does not idle
	// through the hysteresis window.
	MarkUpAfter int
	// ProbeTimeout bounds one node's whole health probe (healthz + listing
	// + info). Probes used to inherit the client's 30s request default,
	// which let a single hung node pin a probe goroutine for most of a
	// minute per round; a probe that slow IS a failure. Default 5s.
	ProbeTimeout time.Duration
	// Client configures the per-node HTTP clients. Retries is forced to
	// NoRetries: the gateway's failover across replicas replaces in-place
	// retry — hammering a dead node with backoff would stall the caller,
	// and end clients talking to the gateway bring their own retry loop.
	Client ClientConfig
	// Migration configures the audit-job migration supervisor (disabled by
	// default). See MigrationConfig.
	Migration MigrationConfig
}

func (c *GatewayConfig) defaults() {
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MarkDownAfter <= 0 {
		c.MarkDownAfter = 2
	}
	if c.MarkUpAfter <= 0 {
		c.MarkUpAfter = 2
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 5 * time.Second
	}
	c.Migration.defaults(c.HealthInterval)
	c.Client.defaults()
	// Re-pin AFTER normalization: ClientConfig.defaults turns the sentinel
	// into 0, and 0 means "use the default (2)" to the next defaults() run
	// inside DialModel — which would hand every node client a retry loop
	// (and its Retry-After sleeps) right back.
	c.Client.Retries = NoRetries
}

// gatewayNode is one backend in the membership table: its health streaks,
// its last-known zoo listing (sticky across mark-down), and its cached
// per-model clients.
type gatewayNode struct {
	name string // "n0", "n1", ... — placement-hash and job-namespace key
	base string
	cfg  ClientConfig
	api  *Client // bare client for node-level routes (healthz, audits)

	mu           sync.Mutex
	healthy      bool
	everUp       bool // first-ever success marks up without hysteresis
	fails        int  // consecutive failures (probe or proxied)
	oks          int  // consecutive successful probes
	lastErr      error
	health       Health // last successful healthz payload
	listing      []ModelInfo
	listDefault  string
	info         infoResponse // last successful /v1/info probe
	screenPolicy string
	clients      map[string]*Client // model id -> dialed predict client
}

// recordSuccess feeds one successful probe into the mark-up hysteresis and
// refreshes the node's sticky snapshots. The cached predict clients carry
// dial-time metadata — max_batch, screening, wire — so they are dropped, to
// be dialed again on next use, whenever that may have gone stale: the node is
// back from down (it may be a different process), or its info document
// differs from the last one probed.
func (n *gatewayNode) recordSuccess(markUpAfter int, h Health, list ModelList, info infoResponse) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails = 0
	n.oks++
	n.lastErr = nil
	backUp := !n.healthy && (n.oks >= markUpAfter || !n.everUp)
	if backUp {
		n.healthy = true
		n.everUp = true
	}
	if backUp || !reflect.DeepEqual(info, n.info) {
		clear(n.clients)
	}
	n.health = h
	n.listing = list.Models
	n.listDefault = list.Default
	n.info = info
	if info.Screened {
		n.screenPolicy = info.ScreenPolicy
	}
}

// recordFailure feeds one failure (probe or proxied request) into the
// mark-down hysteresis.
func (n *gatewayNode) recordFailure(markDownAfter int, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.oks = 0
	n.fails++
	n.lastErr = err
	if n.healthy && n.fails >= markDownAfter {
		n.healthy = false
	}
}

func (n *gatewayNode) isHealthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}

// predictClient returns the cached client bound to (node, model), dialing
// on first use. Dials race benignly: the first cached client wins.
func (n *gatewayNode) predictClient(ctx context.Context, modelID string) (*Client, error) {
	n.mu.Lock()
	c := n.clients[modelID]
	n.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := DialModel(ctx, n.base, modelID, n.cfg)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if cached := n.clients[modelID]; cached != nil {
		c = cached
	} else {
		n.clients[modelID] = c
	}
	n.mu.Unlock()
	return c, nil
}

// Gateway routes the wire API across a fleet of mlaas-server nodes. Create
// one with NewGateway, serve it with NewGatewayServer, stop it with Close.
type Gateway struct {
	cfg    GatewayConfig
	nodes  []*gatewayNode
	byName map[string]*gatewayNode

	// Merged fleet view, rebuilt after every probe round.
	mu           sync.Mutex
	zoo          map[string]ModelInfo
	hosts        map[string][]*gatewayNode // model id -> nodes listing it
	defaultID    string
	maxBatch     int
	screenPolicy string

	rr        atomic.Uint64 // round-robin cursor spreading hot models over replicas
	closed    atomic.Bool
	done      chan struct{}
	loopStop  context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once

	// sup is the audit-job migration supervisor (nil unless
	// Migration.Enabled).
	sup *supervisor
}

// NewGateway probes every configured node once (synchronously), builds the
// merged zoo, and starts the background membership loop. It fails unless
// at least one node is healthy and lists at least one model — a gateway
// with nothing to serve is a misconfiguration, not a degraded state.
func NewGateway(ctx context.Context, cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("mlaas: gateway needs at least one node URL")
	}
	cfg.defaults()
	g := &Gateway{
		cfg:    cfg,
		byName: make(map[string]*gatewayNode, len(cfg.Nodes)),
		zoo:    make(map[string]ModelInfo),
		hosts:  make(map[string][]*gatewayNode),
		done:   make(chan struct{}),
	}
	for i, base := range cfg.Nodes {
		n := &gatewayNode{
			name:    fmt.Sprintf("n%d", i),
			base:    strings.TrimRight(base, "/"),
			cfg:     cfg.Client,
			clients: make(map[string]*Client),
		}
		n.api = &Client{base: n.base, cfg: cfg.Client}
		g.nodes = append(g.nodes, n)
		g.byName[n.name] = n
	}
	g.probeAll(ctx)
	if g.HealthyNodes() == 0 {
		var reasons []string
		for _, n := range g.nodes {
			n.mu.Lock()
			reasons = append(reasons, fmt.Sprintf("%s (%s): %v", n.name, n.base, n.lastErr))
			n.mu.Unlock()
		}
		return nil, fmt.Errorf("mlaas: gateway bootstrap: no healthy node: %s", strings.Join(reasons, "; "))
	}
	g.mu.Lock()
	empty := len(g.zoo) == 0
	g.mu.Unlock()
	if empty {
		return nil, errors.New("mlaas: gateway bootstrap: healthy nodes list no models")
	}
	if cfg.Migration.Enabled {
		g.sup = newSupervisor(g, cfg.Migration)
	}
	loopCtx, cancel := context.WithCancel(context.Background())
	g.loopStop = cancel
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		ticker := time.NewTicker(g.cfg.HealthInterval)
		defer ticker.Stop()
		for {
			select {
			case <-g.done:
				return
			case <-ticker.C:
				g.probeAll(loopCtx)
			}
		}
	}()
	if g.sup != nil {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			ticker := time.NewTicker(g.cfg.Migration.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-g.done:
					return
				case <-ticker.C:
					g.sup.sweep(loopCtx)
				}
			}
		}()
	}
	return g, nil
}

// Close stops the membership loop (provider seam: Server shutdown lands
// here). Safe to call more than once.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		g.closed.Store(true)
		if g.loopStop != nil {
			g.loopStop()
		}
		close(g.done)
		g.wg.Wait()
	})
}

// Nodes reports the configured fleet size.
func (g *Gateway) Nodes() int { return len(g.nodes) }

// HealthyNodes reports how many nodes are currently marked up.
func (g *Gateway) HealthyNodes() int {
	healthy := 0
	for _, n := range g.nodes {
		if n.isHealthy() {
			healthy++
		}
	}
	return healthy
}

// probeAll probes every node once (concurrently) and rebuilds the merged
// fleet view. The bootstrap in NewGateway and the background loop both land
// here; tests drive membership deterministically by calling it directly.
func (g *Gateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range g.nodes {
		wg.Add(1)
		go func(n *gatewayNode) {
			defer wg.Done()
			g.probeNode(ctx, n)
		}(n)
	}
	wg.Wait()
	g.refresh()
}

// probeNode runs one health check: liveness, zoo listing, and serving
// limits in three requests. Any failure counts one strike. The whole probe
// shares one ProbeTimeout deadline: a node too slow to answer three cheap
// GETs inside it is down for routing purposes, and without the ceiling one
// hung socket would pin this goroutine for the client's full 30s default.
func (g *Gateway) probeNode(ctx context.Context, n *gatewayNode) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	var h Health
	var list ModelList
	var info infoResponse
	for _, probe := range []struct {
		path string
		into any
	}{{"/v1/healthz", &h}, {"/v1/models", &list}, {"/v1/info", &info}} {
		if err := n.api.getJSON(ctx, n.base+probe.path, probe.into); err != nil {
			n.recordFailure(g.cfg.MarkDownAfter, err)
			return
		}
	}
	n.recordSuccess(g.cfg.MarkUpAfter, h, list, info)
}

// refresh rebuilds the merged zoo from every node's last-known listing.
// Healthy nodes' metadata wins; down nodes only contribute ids no healthy
// node lists (sticky listings are what turn "every host down" into a 503
// instead of a 404). The serving batch limit is the minimum across healthy
// nodes so the gateway never forwards a batch a node would reject.
func (g *Gateway) refresh() {
	zoo := make(map[string]ModelInfo)
	hosts := make(map[string][]*gatewayNode)
	defaultID, screenPolicy := "", ""
	maxBatch := 0
	for pass := 0; pass < 2; pass++ {
		for _, n := range g.nodes {
			n.mu.Lock()
			healthy, listing, listDefault := n.healthy, n.listing, n.listDefault
			nodeMaxBatch, nodePolicy := n.info.MaxBatch, n.screenPolicy
			n.mu.Unlock()
			if healthy != (pass == 0) {
				continue
			}
			for _, mi := range listing {
				if _, seen := zoo[mi.ID]; !seen {
					zoo[mi.ID] = mi
				}
				hosts[mi.ID] = append(hosts[mi.ID], n)
			}
			if defaultID == "" {
				defaultID = listDefault
			}
			if healthy {
				if nodeMaxBatch > 0 && (maxBatch == 0 || nodeMaxBatch < maxBatch) {
					maxBatch = nodeMaxBatch
				}
				if screenPolicy == "" {
					screenPolicy = nodePolicy
				}
			}
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.zoo = zoo
	g.hosts = hosts
	if defaultID != "" {
		g.defaultID = defaultID
	}
	if maxBatch > 0 {
		g.maxBatch = maxBatch
	}
	if screenPolicy != "" {
		g.screenPolicy = screenPolicy
	}
}

// --- Placement -----------------------------------------------------------------------

// rendezvousScore is the highest-random-weight score of placing modelID on
// node: an fnv64a hash of the pair (with a separator so (node="a", model=
// "bc") and (node="ab", model="c") never collide by concatenation), pushed
// through a 64-bit avalanche finalizer. The finalizer is load-bearing: raw
// fnv64a diffuses low-to-high only, so model ids sharing a long prefix
// leave the node-dependent high bits untouched and one node wins every
// election. Full avalanche restores the uniform spread HRW depends on.
func rendezvousScore(node, modelID string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(modelID))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// placementOrder sorts nodeNames by descending rendezvous score for
// modelID (ties broken by name). The head of the order is the model's
// primary; replicas extend down the list. The order is a pure function of
// the inputs: adding or removing a node never reorders the survivors, so a
// node loss reassigns exactly the models it owned.
func placementOrder(modelID string, nodeNames []string) []string {
	order := append([]string(nil), nodeNames...)
	sort.Slice(order, func(i, j int) bool { return placedBefore(modelID, order[i], order[j]) })
	return order
}

// placedBefore reports whether node a outranks node b for modelID: higher
// rendezvous score first, ties broken by name.
func placedBefore(modelID, a, b string) bool {
	sa, sb := rendezvousScore(a, modelID), rendezvousScore(b, modelID)
	if sa != sb {
		return sa > sb
	}
	return a < b
}

// replicasFor resolves a model's current replica set: the nodes hosting it,
// in rendezvous order, filtered to healthy, truncated to Replication. backup
// is the desperation tier — every marked-down hosting node, in placement
// order. Mark-down is a prediction, not a fact: a node that just recovered
// stays invisible until the next probe, so when the healthy tier is
// exhausted the router tries the marked-down hosts before giving up rather
// than failing a request a live node could have served. known reports
// whether any node (healthy or not) has ever listed the id.
func (g *Gateway) replicasFor(modelID string) (replicas, backup []*gatewayNode, known bool) {
	hosting := g.hostsInOrder(modelID)
	for _, n := range hosting {
		if !n.isHealthy() {
			backup = append(backup, n)
		} else if len(replicas) < g.cfg.Replication {
			replicas = append(replicas, n)
		}
	}
	return replicas, backup, len(hosting) > 0
}

// hostsInOrder lists every node that has ever listed modelID, healthy or
// not, in the model's placement order.
func (g *Gateway) hostsInOrder(modelID string) []*gatewayNode {
	g.mu.Lock()
	hosts := append([]*gatewayNode(nil), g.hosts[modelID]...)
	g.mu.Unlock()
	sort.Slice(hosts, func(i, j int) bool { return placedBefore(modelID, hosts[i].name, hosts[j].name) })
	return hosts
}

// --- Request routing -----------------------------------------------------------------

// resolveID maps the empty (default-route) id to the fleet default.
func (g *Gateway) resolveID(id string) string {
	if id != "" {
		return id
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.defaultID
}

// predict (provider seam) routes one batch to the model's replica set:
// rotate the starting replica (spreading a hot model's load), fail over on
// transient errors — dropping to the marked-down desperation tier once the
// healthy replicas are exhausted — and shed with the node's own 429 only
// when every replica sheds. Permanent node verdicts (4xx other than 429)
// pass through immediately: a replica would answer the same. The answering
// node's reply is decoded into dst, over whatever rows a failed replica left
// there.
func (g *Gateway) predict(ctx context.Context, id string, x, dst *tensor.Tensor, screen bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	if g.closed.Load() {
		return nil, nil, errEngineClosed
	}
	id = g.resolveID(id)
	replicas, backup, known := g.replicasFor(id)
	if !known {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	// Rotation spreads load across the healthy tier only; the desperation
	// tier keeps its placement order so a half-recovered fleet converges
	// back onto primaries instead of scattering.
	candidates := make([]*gatewayNode, 0, len(replicas)+len(backup))
	if len(replicas) > 0 {
		start := int(g.rr.Add(1) % uint64(len(replicas)))
		for i := range replicas {
			candidates = append(candidates, replicas[(start+i)%len(replicas)])
		}
	}
	candidates = append(candidates, backup...)
	if len(candidates) == 0 {
		return nil, nil, fmt.Errorf("%w: model %q (all hosting nodes down)", ErrNoHealthyReplica, id)
	}
	var lastErr error
	var shed *nodeError
	for _, n := range candidates {
		out, scr, err := g.predictOn(ctx, n, id, x, dst, screen)
		if err == nil {
			return out, scr, nil
		}
		if ctx.Err() != nil {
			return nil, nil, err // caller gone: stop fanning out
		}
		var se *StatusError
		if errors.As(err, &se) {
			switch {
			case se.Code == http.StatusTooManyRequests:
				// Shedding, not broken: no health strike. Try a replica;
				// remember the hint in case they all shed.
				shed = &nodeError{node: n.name, code: se.Code, msg: se.Msg, retryAfter: se.RetryAfter}
			case se.Code >= 500:
				n.recordFailure(g.cfg.MarkDownAfter, err)
			default:
				return nil, nil, &nodeError{node: n.name, code: se.Code, msg: se.Msg, retryAfter: se.RetryAfter}
			}
		} else {
			n.recordFailure(g.cfg.MarkDownAfter, err)
		}
		lastErr = err
	}
	if shed != nil {
		return nil, nil, shed
	}
	return nil, nil, fmt.Errorf("%w: model %q (%d replicas tried, last: %v)", ErrNoHealthyReplica, id, len(candidates), lastErr)
}

// predictOn sends the batch to one node and decodes its reply into dst (nil:
// a fresh tensor). The node's wire Screening comes back as provider-seam
// ScreenResults; the gateway's own HTTP layer re-derives rejection from
// Flagged + policy, exactly as a node does, so the response reaching the end
// client is bit-identical either way.
func (g *Gateway) predictOn(ctx context.Context, n *gatewayNode, id string, x, dst *tensor.Tensor, screen bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	c, err := n.predictClient(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	out, screening, err := c.predict(ctx, x, dst, screen)
	if err != nil {
		return nil, nil, err
	}
	var scores []vp.ScreenResult
	if screening != nil {
		scores = make([]vp.ScreenResult, len(screening))
		for i, sc := range screening {
			scores[i] = vp.ScreenResult{Score: sc.Score, Flagged: sc.Flagged, Threshold: sc.Threshold}
		}
	}
	return out, scores, nil
}

// nodeRouteErr classifies a failed node-level route (audit submit/poll):
// a node's own non-2xx passes through as nodeError; transport-level
// failures strike the node's health and become a structured 503. So does a
// node's 5xx — except 501, its deliberate "not enabled here", which says
// nothing about its health.
func (g *Gateway) nodeRouteErr(n *gatewayNode, err error) error {
	var se *StatusError
	if errors.As(err, &se) {
		if se.Code >= 500 && se.Code != http.StatusNotImplemented {
			n.recordFailure(g.cfg.MarkDownAfter, err)
		}
		return &nodeError{node: n.name, code: se.Code, msg: se.Msg, retryAfter: se.RetryAfter}
	}
	n.recordFailure(g.cfg.MarkDownAfter, err)
	return &nodeError{node: n.name, code: http.StatusServiceUnavailable, msg: "node unreachable: " + err.Error()}
}

// --- Audit-job routing ---------------------------------------------------------------

// Gateway audit-job ids are namespaced "{node}.{id}" ("n0.a3"): node job
// sequences are per-process, so two nodes both have an "a1" and the prefix
// keeps poll and cancel routable. The dot survives Go 1.22 ServeMux {id}
// segments (a "/" would not).

// namespaceJob rewrites a node-local job snapshot into the gateway's
// namespace.
func namespaceJob(n *gatewayNode, j audit.Job) audit.Job {
	j.ID = n.name + "." + j.ID
	j.Node = n.name
	return j
}

// splitJob resolves a namespaced job id to its owning node and local id,
// following the supervisor's migration forward chain first: a client still
// polling the id it was handed at submission keeps getting answers after the
// job has been re-homed, from wherever it lives now.
func (g *Gateway) splitJob(jobID string) (*gatewayNode, string, error) {
	if g.sup != nil {
		jobID = g.sup.resolve(jobID)
	}
	name, rest, ok := strings.Cut(jobID, ".")
	if ok {
		if n := g.byName[name]; n != nil && rest != "" {
			return n, rest, nil
		}
	}
	return nil, "", fmt.Errorf("%w: %q", audit.ErrUnknownJob, jobID)
}

// submitAudit routes an audit submission to the model's primary healthy
// replica (rendezvous order, no rotation: job placement stays stable), or
// to the first marked-down host when no healthy one exists — one attempt,
// since a probe-lagged node may well still answer. Submissions are not
// idempotent, so unlike predicts they are never retried on another
// replica: a node that might have accepted the job must not be shadowed
// by a duplicate.
func (g *Gateway) submitAudit(ctx context.Context, modelID string, inspectID int, resume *AuditResume) (audit.Job, error) {
	modelID = g.resolveID(modelID)
	replicas, backup, known := g.replicasFor(modelID)
	if !known {
		return audit.Job{}, fmt.Errorf("%w: %q", ErrUnknownModel, modelID)
	}
	replicas = append(replicas, backup...)
	if len(replicas) == 0 {
		return audit.Job{}, fmt.Errorf("%w: model %q (all hosting nodes down)", ErrNoHealthyReplica, modelID)
	}
	n := replicas[0]
	c, err := n.predictClient(ctx, modelID)
	if err != nil {
		return audit.Job{}, g.nodeRouteErr(n, err)
	}
	job, err := c.submitAudit(ctx, inspectID, resume)
	if err != nil {
		return audit.Job{}, g.nodeRouteErr(n, err)
	}
	gw := namespaceJob(n, job)
	if g.sup != nil {
		g.sup.track(n, gw, modelID)
	}
	return gw, nil
}

// exportAuditCheckpoint fetches the newest checkpoint frame for a
// namespaced job from its node. audit.ErrNoCheckpoint passes through
// unwrapped so the HTTP layer can answer 204 just like a single node.
func (g *Gateway) exportAuditCheckpoint(ctx context.Context, jobID string) (CheckpointExport, error) {
	n, local, err := g.splitJob(jobID)
	if err != nil {
		return CheckpointExport{}, err
	}
	exp, err := n.api.ExportCheckpoint(ctx, local)
	if err != nil && !errors.Is(err, audit.ErrNoCheckpoint) {
		err = g.nodeRouteErr(n, err)
	}
	return exp, err
}

// onOwner runs one job-snapshot call (poll or cancel) against the node
// owning a namespaced job. The node is tried even when marked down — a
// probe-lagged node may well still answer, and if it does not the caller
// gets a structured 503 rather than a stale snapshot.
func (g *Gateway) onOwner(ctx context.Context, jobID string, call func(*Client, context.Context, string) (audit.Job, error)) (audit.Job, error) {
	n, local, err := g.splitJob(jobID)
	if err != nil {
		return audit.Job{}, err
	}
	job, err := call(n.api, ctx, local)
	if err != nil {
		return audit.Job{}, g.nodeRouteErr(n, err)
	}
	return namespaceJob(n, job), nil
}

// getAudit polls one namespaced job on its node.
func (g *Gateway) getAudit(ctx context.Context, jobID string) (audit.Job, error) {
	return g.onOwner(ctx, jobID, (*Client).GetAudit)
}

// cancelAudit cancels one namespaced job on its node.
func (g *Gateway) cancelAudit(ctx context.Context, jobID string) (audit.Job, error) {
	return g.onOwner(ctx, jobID, (*Client).CancelAudit)
}

// listAudits merges every healthy node's job list (best-effort: a node
// failing mid-list is skipped and takes a health strike), ordered by
// submission time then id. A fleet whose every healthy node answers 501
// answers ErrAuditsDisabled, as each of them would. When no node answers
// at all, the last node error (or ErrNoHealthyReplica, when no node is
// healthy) passes through: an empty list is only ever a fleet's answer.
func (g *Gateway) listAudits(ctx context.Context) ([]audit.Job, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobs []audit.Job
	var asked, disabled int
	var answered bool
	var lastErr error
	for _, n := range g.nodes {
		if !n.isHealthy() {
			continue
		}
		asked++
		wg.Add(1)
		go func(n *gatewayNode) {
			defer wg.Done()
			nodeJobs, err := n.api.ListAudits(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var se *StatusError
				if errors.As(err, &se) && se.Code == http.StatusNotImplemented {
					disabled++
				}
				lastErr = g.nodeRouteErr(n, err)
				return
			}
			answered = true
			for _, j := range nodeJobs {
				jobs = append(jobs, namespaceJob(n, j))
			}
		}(n)
	}
	wg.Wait()
	if asked > 0 && disabled == asked {
		return nil, ErrAuditsDisabled
	}
	if !answered {
		if lastErr == nil {
			lastErr = fmt.Errorf("%w: audit list (no healthy node)", ErrNoHealthyReplica)
		}
		return nil, lastErr
	}
	sort.Slice(jobs, func(i, j int) bool {
		if !jobs[i].Created.Equal(jobs[j].Created) {
			return jobs[i].Created.Before(jobs[j].Created)
		}
		return jobs[i].ID < jobs[j].ID
	})
	return jobs, nil
}

// augmentHealth adds the fleet view to /v1/healthz: membership counts,
// degraded status, and the nodes' aggregated audit-service state (enabled
// iff every healthy node carries a detector — a fleet audit preflight must
// not pass if some shard cannot audit). Nodes with durable job stores also
// contribute an aggregated job_store block: journal bytes and resumed jobs
// add across the fleet, last_compaction is the newest.
func (g *Gateway) augmentHealth(h *Health) {
	h.Nodes = len(g.nodes)
	h.HealthyNodes = 0
	auditsEnabled := false
	auditJobs := 0
	var store *jobstore.Stats
	for _, n := range g.nodes {
		n.mu.Lock()
		if n.healthy {
			h.HealthyNodes++
			if h.HealthyNodes == 1 {
				auditsEnabled = true
			}
			auditsEnabled = auditsEnabled && n.health.AuditsEnabled
			auditJobs += n.health.AuditJobs
			if js := n.health.JobStore; js != nil {
				if store == nil {
					store = &jobstore.Stats{}
				}
				store.JournalBytes += js.JournalBytes
				store.JobsResumed += js.JobsResumed
				store.Compactions += js.Compactions
				if js.LastCompaction.After(store.LastCompaction) {
					store.LastCompaction = js.LastCompaction
				}
			}
		}
		n.mu.Unlock()
	}
	h.AuditsEnabled = auditsEnabled
	h.AuditJobs = auditJobs
	h.JobStore = store
	if g.sup != nil {
		h.MigratedJobs = g.sup.migrated()
		h.MigrationFailures = g.sup.failed()
	}
	if h.HealthyNodes < h.Nodes {
		h.Status = "degraded"
	}
}

// tenantUsage fans the usage question out to every healthy node and sums
// the answers: each node's journal is its own ledger of record, so fleet
// usage is the sum of per-node spend and job counts. Quota is the maximum a
// node reports (uniform-fleet assumption: the nodes share one key file).
// Nodes without tenancy answer 501 and are skipped; only when no node
// answers at all does the last error pass through.
func (g *Gateway) tenantUsage(ctx context.Context, name string) (TenantUsage, error) {
	agg := TenantUsage{Tenant: name}
	var lastErr error
	answered := false
	for _, n := range g.nodes {
		if !n.isHealthy() {
			continue
		}
		var u TenantUsage
		if err := n.api.getJSON(ctx, n.base+"/v1/tenants/"+url.PathEscape(name)+"/usage", &u); err != nil {
			lastErr = g.nodeRouteErr(n, err)
			continue
		}
		answered = true
		agg.Spent += u.Spent
		agg.Jobs += u.Jobs
		if u.Quota > agg.Quota {
			agg.Quota = u.Quota
		}
	}
	if !answered {
		if lastErr != nil {
			return TenantUsage{}, lastErr
		}
		return TenantUsage{}, fmt.Errorf("%w: tenant usage for %q (no healthy node)", ErrNoHealthyReplica, name)
	}
	if agg.Quota > 0 {
		agg.Remaining = agg.Quota - agg.Spent
		if agg.Remaining < 0 {
			agg.Remaining = 0
		}
	}
	return agg, nil
}

// --- Provider seam -------------------------------------------------------------------

var (
	_ provider     = (*Gateway)(nil)
	_ auditBackend = (*Gateway)(nil)
)

// Models lists the merged fleet zoo, sorted by id.
func (g *Gateway) Models() []ModelInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	models := make([]ModelInfo, 0, len(g.zoo))
	for _, mi := range g.zoo {
		models = append(models, mi)
	}
	sort.Slice(models, func(i, j int) bool { return models[i].ID < models[j].ID })
	return models
}

// DefaultID is the fleet's default model: the first healthy node's.
func (g *Gateway) DefaultID() string { return g.resolveID("") }

// Info resolves one model's last-known metadata ("" = the default model).
func (g *Gateway) Info(id string) (ModelInfo, error) {
	id = g.resolveID(id)
	g.mu.Lock()
	mi, ok := g.zoo[id]
	g.mu.Unlock()
	if !ok {
		return ModelInfo{}, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	return mi, nil
}

// MaxBatch is the smallest per-request row limit across healthy nodes.
func (g *Gateway) MaxBatch() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxBatch
}

// NewGatewayServer wraps the gateway in the standard HTTP Server: the full
// wire API — listings, predicts with screening fields, audit jobs, healthz
// — served with the exact envelopes of a single node. The server takes
// ownership of the gateway: Close (and Serve on shutdown) closes it. The
// screening policy advertised and enforced at the gateway is the one the
// fleet's nodes advertise (uniform-fleet assumption).
func NewGatewayServer(g *Gateway) *Server {
	g.mu.Lock()
	policy := g.screenPolicy
	g.mu.Unlock()
	if policy == "" {
		policy = ScreenAnnotate
	}
	return &Server{prov: g, jobs: g, screenPolicy: policy}
}
