package jobstore

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

// The tenancy plane: who may call the API, how fast, and how many oracle
// queries they may spend. Quotas are denominated in the paper's central cost
// metric — individual oracle sample queries, exactly as metered by
// oracle.Counter — so "tenant A may spend 100k queries" means the same thing
// as the query budgets in the experiment tables.

// TenantConfig is one line of the API-key file.
type TenantConfig struct {
	// Name identifies the tenant in job attribution and usage reporting.
	Name string
	// Key is the bearer token presented in Authorization headers.
	Key string
	// Quota bounds cumulative oracle-query spend (0 = unlimited).
	Quota int64
	// RPS bounds mutating API requests per second (0 = unlimited); bursts
	// up to 2×RPS are tolerated via the token bucket.
	RPS float64
	// Service marks a privileged service credential (the `service` flag in
	// the key file) — a gateway's migration supervisor, not an end tenant.
	// Only service credentials may attribute a resume submission to a
	// tenant other than themselves; an ordinary key that could name an
	// arbitrary resume tenant could bill its spend to a victim's quota.
	Service bool
}

// ParseKeyFile reads a static API-key file: one
// `tenant:key[:quota[:rps[:flags]]]` per line, with #-comments and blank
// lines ignored. flags is a comma-separated set; the only recognized flag
// is `service` (see TenantConfig.Service).
func ParseKeyFile(path string) ([]TenantConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("jobstore: opening key file: %w", err)
	}
	defer f.Close()
	var out []TenantConfig
	seenKey := make(map[string]string)
	seenName := make(map[string]bool)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ":")
		if len(parts) < 2 || len(parts) > 5 {
			return nil, fmt.Errorf("jobstore: %s:%d: want tenant:key[:quota[:rps[:flags]]]", path, line)
		}
		tc := TenantConfig{Name: strings.TrimSpace(parts[0]), Key: strings.TrimSpace(parts[1])}
		if tc.Name == "" || tc.Key == "" {
			return nil, fmt.Errorf("jobstore: %s:%d: empty tenant or key", path, line)
		}
		if len(parts) >= 3 && parts[2] != "" {
			q, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
			if err != nil || q < 0 {
				return nil, fmt.Errorf("jobstore: %s:%d: bad quota %q", path, line, parts[2])
			}
			tc.Quota = q
		}
		if len(parts) >= 4 && parts[3] != "" {
			r, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("jobstore: %s:%d: bad rps %q", path, line, parts[3])
			}
			tc.RPS = r
		}
		if len(parts) == 5 && parts[4] != "" {
			for _, f := range strings.Split(parts[4], ",") {
				switch strings.TrimSpace(f) {
				case "service":
					tc.Service = true
				case "":
				default:
					return nil, fmt.Errorf("jobstore: %s:%d: unknown flag %q (known: service)", path, line, f)
				}
			}
		}
		if prev, dup := seenKey[tc.Key]; dup {
			return nil, fmt.Errorf("jobstore: %s:%d: key already assigned to tenant %q", path, line, prev)
		}
		if seenName[tc.Name] {
			return nil, fmt.Errorf("jobstore: %s:%d: duplicate tenant %q", path, line, tc.Name)
		}
		seenKey[tc.Key] = tc.Name
		seenName[tc.Name] = true
		out = append(out, tc)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobstore: reading key file: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("jobstore: key file %s has no tenants", path)
	}
	return out, nil
}

// Tenant is a live tenant: configuration plus the running spend ledger and
// rate-limit bucket. Safe for concurrent use.
type Tenant struct {
	Name  string
	Key   string
	Quota int64
	// Service reports a privileged service credential (TenantConfig.Service):
	// the only class of caller allowed to resume a job on another tenant's
	// behalf.
	Service bool

	mu     sync.Mutex
	spent  int64
	rps    float64
	tokens float64
	last   time.Time
}

// Spent returns cumulative oracle-query spend.
func (t *Tenant) Spent() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spent
}

// reserve atomically admits and charges a batch of n queries, rejecting with
// a QuotaError when the batch would exceed the quota. Refund on oracle
// failure keeps the ledger equal to successful spend, matching
// oracle.Counter's accounting.
func (t *Tenant) reserve(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Quota > 0 && t.spent+n > t.Quota {
		return &QuotaError{Tenant: t.Name, Spent: t.spent, Quota: t.Quota}
	}
	t.spent += n
	return nil
}

func (t *Tenant) refund(n int64) {
	t.mu.Lock()
	t.spent -= n
	t.mu.Unlock()
}

// Remaining reports the unspent quota; ok is false when the tenant is
// unlimited.
func (t *Tenant) Remaining() (n int64, ok bool) {
	if t.Quota <= 0 {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spent >= t.Quota {
		return 0, true
	}
	return t.Quota - t.spent, true
}

// Allow consumes one rate-limit token (token bucket, burst 2×RPS, floor 1).
func (t *Tenant) Allow(now time.Time) bool {
	if t.rps <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	burst := 2 * t.rps
	if burst < 1 {
		burst = 1
	}
	if !t.last.IsZero() {
		t.tokens += now.Sub(t.last).Seconds() * t.rps
	}
	if t.tokens > burst {
		t.tokens = burst
	}
	t.last = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// Tenancy resolves API keys to tenants and carries their ledgers.
type Tenancy struct {
	byKey  map[string]*Tenant
	byName map[string]*Tenant
}

// NewTenancy builds the live tenant set from parsed configs, seeding each
// ledger from seedSpend (the Store's journal-replayed TenantSpend), so quota
// accounting picks up where the previous process left off.
func NewTenancy(configs []TenantConfig, seedSpend map[string]int64) *Tenancy {
	tn := &Tenancy{byKey: make(map[string]*Tenant), byName: make(map[string]*Tenant)}
	for _, c := range configs {
		t := &Tenant{Name: c.Name, Key: c.Key, Quota: c.Quota, Service: c.Service, rps: c.RPS, tokens: 2 * c.RPS}
		if t.tokens < 1 {
			t.tokens = 1
		}
		t.spent = seedSpend[c.Name]
		tn.byKey[c.Key] = t
		tn.byName[c.Name] = t
	}
	return tn
}

// Authenticate resolves a bearer key.
func (tn *Tenancy) Authenticate(key string) (*Tenant, bool) {
	t, ok := tn.byKey[key]
	return t, ok
}

// Lookup resolves a tenant by name.
func (tn *Tenancy) Lookup(name string) (*Tenant, bool) {
	t, ok := tn.byName[name]
	return t, ok
}

// QuotaError reports an oracle query rejected because the tenant's budget is
// exhausted. It carries the exact Counter-style accounting the structured
// 402 envelope exposes.
type QuotaError struct {
	Tenant string
	Spent  int64
	Quota  int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("jobstore: tenant %q oracle-query quota exhausted (%d of %d spent)", e.Tenant, e.Spent, e.Quota)
}

// quotaOracle enforces a tenant's query quota below the job's
// oracle.Counter: each Predict is admitted only if the whole batch fits in
// the remaining budget, and charged to the ledger only on success — the same
// per-row, batching-invariant accounting Counter uses, so a job's journaled
// spend and the ledger can never disagree on a completed call.
type quotaOracle struct {
	tenant *Tenant
	inner  oracle.Oracle
}

// WrapOracle returns inner guarded by t's quota ledger. Tenants without a
// quota still get charged (for usage reporting) but are never rejected.
func WrapOracle(t *Tenant, inner oracle.Oracle) oracle.Oracle {
	if t == nil {
		return inner
	}
	return &quotaOracle{tenant: t, inner: inner}
}

var _ oracle.BatchLimiter = (*quotaOracle)(nil)

func (q *quotaOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	rows := int64(x.Dim(0))
	if err := q.tenant.reserve(rows); err != nil {
		return nil, err
	}
	out, err := q.inner.Predict(ctx, x)
	if err != nil {
		q.tenant.refund(rows)
	}
	return out, err
}

func (q *quotaOracle) NumClasses() int { return q.inner.NumClasses() }
func (q *quotaOracle) InputDim() int   { return q.inner.InputDim() }

// MaxBatch passes through the wrapped oracle's batch limit so quota
// enforcement does not change how callers batch.
func (q *quotaOracle) MaxBatch() int {
	if bl, ok := q.inner.(oracle.BatchLimiter); ok {
		return bl.MaxBatch()
	}
	return 0
}
