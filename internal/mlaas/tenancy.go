package mlaas

// The tenancy plane: API-key auth, per-tenant rate limits, and per-tenant
// oracle-query quotas over the audit platform (internal/jobstore). A server
// given a parsed key file (EnableTenancy) requires Authorization: Bearer
// <key> on every mutating /v1/* route, attributes submitted audit jobs to
// the authenticated tenant, charges each job's oracle queries against the
// tenant's quota ledger, and answers GET /v1/tenants/{id}/usage. Read-only
// routes (listings, health, job polling) stay open — the quota protects the
// expensive resource, which is oracle queries, not metadata.
//
// A gateway forwards the caller's bearer token to its backend nodes
// unchanged (via the request context, see WithAPIKey), so tenant
// attribution and quota enforcement happen on the node that actually runs
// the job, whose journal is the ledger of record.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"bprom/internal/jobstore"
)

// ErrTenancyDisabled reports a tenancy request against a server without an
// API-key file. The HTTP layer maps it to 501.
var ErrTenancyDisabled = errors.New("mlaas: tenancy not enabled on this server (start it with an API-key file)")

// ErrUnknownTenant reports a usage query for a tenant the key file does not
// name. The HTTP layer maps it to 404.
var ErrUnknownTenant = errors.New("mlaas: unknown tenant")

// ctxKey keys the values the tenancy middleware threads through request
// contexts.
type ctxKey int

const (
	ctxKeyAPIKey ctxKey = iota
	ctxKeyTenant
)

// WithAPIKey returns a context that makes every mlaas Client request carry
// Authorization: Bearer key, overriding the client's configured APIKey. The
// gateway uses it to forward the calling tenant's credential across the
// routing hop, so the node running the job sees the original caller.
func WithAPIKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, ctxKeyAPIKey, key)
}

// apiKeyFrom reads a WithAPIKey credential ("" when absent).
func apiKeyFrom(ctx context.Context) string {
	k, _ := ctx.Value(ctxKeyAPIKey).(string)
	return k
}

// withTenant marks ctx as acting for tenant: the tenancy middleware does it
// for an authenticated caller, the re-audit scheduler for its own sweeps.
func withTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, ctxKeyTenant, tenant)
}

// tenantFrom reads the tenant withTenant stored ("" on servers without
// tenancy, and on non-mutating routes).
func tenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(ctxKeyTenant).(string)
	return t
}

// bearerToken extracts the Authorization bearer token ("" when absent or
// not bearer-shaped).
func bearerToken(r *http.Request) string {
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return strings.TrimSpace(h[len(prefix):])
	}
	return ""
}

// EnableTenancy attaches the tenant set to the server: mutating /v1/*
// routes start requiring a valid API key, submissions are attributed to the
// authenticated tenant, and audit oracle traffic is charged against the
// tenant's quota. Call it before EnableAudits — resumed jobs rebuild their
// oracles at EnableAudits time and must see the tenancy to quota-wrap them.
func (s *Server) EnableTenancy(tn *jobstore.Tenancy) {
	s.tenancy = tn
	if s.local != nil {
		s.local.tenancy = tn
	}
}

// Tenancy exposes the attached tenant set (nil when tenancy is disabled).
func (s *Server) Tenancy() *jobstore.Tenancy { return s.tenancy }

// withTenancy is the middleware around the whole route table. It always
// captures the caller's bearer token into the request context so routing
// providers (the gateway) can forward it; with tenancy enabled it
// additionally enforces authentication and per-tenant rate limits on
// mutating routes, rejecting with structured 401/429 envelopes.
func (s *Server) withTenancy(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		key := bearerToken(r)
		if key != "" {
			ctx = WithAPIKey(ctx, key)
		}
		if s.tenancy != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
			t, ok := s.tenancy.Authenticate(key)
			if key == "" || !ok {
				writeJSON(w, http.StatusUnauthorized, errorResponse{
					Error: "missing or invalid API key (send Authorization: Bearer <key>)",
					Code:  "unauthorized",
				})
				return
			}
			if !t.Allow(time.Now()) {
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, errorResponse{
					Error: fmt.Sprintf("tenant %q rate limit exceeded", t.Name),
					Code:  "rate_limited",
				})
				return
			}
			ctx = withTenant(ctx, t.Name)
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// TenantUsage is the GET /v1/tenants/{id}/usage payload: the tenant's
// oracle-query ledger and job count. Through a gateway the numbers are the
// sum over the fleet's nodes (each node's journal is its own ledger of
// record).
type TenantUsage struct {
	// Tenant is the tenant name.
	Tenant string `json:"tenant"`
	// Quota is the configured oracle-query budget (absent = unlimited).
	Quota int64 `json:"quota,omitempty"`
	// Spent is cumulative successful oracle-query spend, as metered by
	// oracle.Counter and replayed from the journal across restarts.
	Spent int64 `json:"spent"`
	// Remaining is the unspent budget, present only with a quota.
	Remaining int64 `json:"remaining,omitempty"`
	// Jobs counts audit jobs attributed to the tenant.
	Jobs int `json:"jobs"`
}

func (s *Server) handleTenantUsage(w http.ResponseWriter, r *http.Request, name string) {
	u, err := s.jobs.tenantUsage(r.Context(), name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, u)
}

// EnableReaudit starts the cron-like re-audit scheduler: every interval it
// submits one audit job per hosted model that is compatible with the
// detector and not already queued or running, attributed to tenant (so
// scheduled sweeps are distinguishable from user submissions in listings
// and usage). Call it after EnableAudits; Close stops the scheduler before
// draining the jobs it submitted.
func (s *Server) EnableReaudit(interval time.Duration, tenant string) error {
	if s.Audits() == nil {
		return ErrAuditsDisabled
	}
	if s.reaudit != nil {
		return errors.New("mlaas: re-audit scheduler already enabled")
	}
	s.reaudit = jobstore.NewScheduler(interval, func(ctx context.Context) {
		s.reauditSweep(withTenant(ctx, tenant))
	})
	return nil
}

// reauditSweep submits one job per idle auditable model on behalf of ctx's
// tenant. Failures (queue full, incompatible, closed) are skipped silently:
// the next sweep retries, and piling up duplicate jobs would be worse than
// waiting a tick.
func (s *Server) reauditSweep(ctx context.Context) {
	active := make(map[string]bool)
	for _, j := range s.local.mgr.List() {
		if !j.State.Terminal() {
			active[j.ModelID] = true
		}
	}
	for _, mi := range s.prov.Models() {
		if active[mi.ID] {
			continue
		}
		_, _ = s.local.submitAudit(ctx, mi.ID, ServerAssignedInspectID, nil)
	}
}
