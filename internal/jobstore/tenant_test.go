package jobstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

func writeKeys(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte(lines), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseKeyFile(t *testing.T) {
	path := writeKeys(t, `
# tenants
acme:sk-acme-1:100000:5
globex:sk-globex-9
initech:sk-init:0:2.5
gateway:sk-gw:0:0:service
`)
	cfgs, err := ParseKeyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("parsed %d tenants, want 4", len(cfgs))
	}
	if cfgs[0].Name != "acme" || cfgs[0].Key != "sk-acme-1" || cfgs[0].Quota != 100000 || cfgs[0].RPS != 5 {
		t.Fatalf("acme parsed wrong: %+v", cfgs[0])
	}
	if cfgs[1].Quota != 0 || cfgs[1].RPS != 0 {
		t.Fatalf("globex should be unlimited: %+v", cfgs[1])
	}
	if cfgs[2].RPS != 2.5 {
		t.Fatalf("initech rps parsed wrong: %+v", cfgs[2])
	}
	if !cfgs[3].Service || cfgs[2].Service || cfgs[0].Service {
		t.Fatalf("service flag: gateway=%v acme=%v initech=%v, want only gateway", cfgs[3].Service, cfgs[0].Service, cfgs[2].Service)
	}
	// The flag survives into the live tenant set.
	tn := NewTenancy(cfgs, nil)
	if gw, ok := tn.Lookup("gateway"); !ok || !gw.Service {
		t.Fatalf("live gateway tenant lost the service flag: %+v ok=%v", gw, ok)
	}
	if a, _ := tn.Lookup("acme"); a.Service {
		t.Fatal("acme gained a service flag it was never granted")
	}
}

func TestParseKeyFileRejects(t *testing.T) {
	for name, lines := range map[string]string{
		"empty":         "# only comments\n",
		"no-key":        "acme\n",
		"empty-fields":  "acme:\n",
		"bad-quota":     "acme:k:notanumber\n",
		"neg-quota":     "acme:k:-5\n",
		"dup-key":       "a:k1\nb:k1\n",
		"dup-tenant":    "a:k1\na:k2\n",
		"unknown-flag":  "a:k:1:2:admin\n",
		"too-many-cols": "a:k:1:2:service:x\n",
	} {
		if _, err := ParseKeyFile(writeKeys(t, lines)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// fixedOracle returns constant confidences and counts calls.
type fixedOracle struct {
	mu    sync.Mutex
	calls int
}

func (o *fixedOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	o.mu.Lock()
	o.calls++
	o.mu.Unlock()
	out := tensor.New(x.Dim(0), 2)
	for i := range out.Data {
		out.Data[i] = 0.5
	}
	return out, nil
}
func (o *fixedOracle) NumClasses() int { return 2 }
func (o *fixedOracle) InputDim() int   { return 4 }

func TestQuotaOracleExactAccounting(t *testing.T) {
	// Both entry points, Predict and PredictInto (which a Counter forwards
	// to the quota oracle's own), admit and charge alike.
	for _, into := range []bool{false, true} {
		tn := NewTenancy([]TenantConfig{{Name: "acme", Key: "k", Quota: 10}}, nil)
		tenant, _ := tn.Lookup("acme")
		inner := &fixedOracle{}
		counter := oracle.NewCounter(WrapOracle(tenant, inner))
		ctx := context.Background()
		query := func(rows, dstRows int) error {
			if !into {
				_, err := counter.Predict(ctx, tensor.New(rows, 4))
				return err
			}
			return oracle.PredictInto(ctx, counter, tensor.New(dstRows, 2), tensor.New(rows, 4))
		}

		// 3 batches of 3 rows fit; a 4th would cross 10.
		for i := 0; i < 3; i++ {
			if err := query(3, 3); err != nil {
				t.Fatal(err)
			}
		}
		err := query(3, 3)
		var qe *QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("into=%v: want QuotaError, got %v", into, err)
		}
		// The envelope's accounting matches oracle.Counter exactly: the
		// rejected batch is not charged anywhere.
		if qe.Spent != 9 || qe.Quota != 10 {
			t.Fatalf("into=%v: quota error accounting %d/%d, want 9/10", into, qe.Spent, qe.Quota)
		}
		if counter.Queries() != 9 || tenant.Spent() != 9 {
			t.Fatalf("into=%v: counter %d / ledger %d, want 9/9", into, counter.Queries(), tenant.Spent())
		}
		if into {
			// A failed query is refunded: here the reply cannot fill dst.
			if err := query(1, 2); err == nil {
				t.Fatal("a 1-row reply filled a 2-row destination")
			}
		}
		// A 1-row probe still fits.
		if err := query(1, 1); err != nil {
			t.Fatal(err)
		}
		if counter.Queries() != 10 || tenant.Spent() != 10 {
			t.Fatalf("into=%v: counter %d / ledger %d, want 10/10", into, counter.Queries(), tenant.Spent())
		}
	}
}

func TestQuotaLedgerSeedsFromStore(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	now := time.Now()
	if err := s.Create(1, "m", "acme", 1, now); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(1, 2, 7, []byte("st")); err != nil {
		t.Fatal(err)
	}
	tn := NewTenancy([]TenantConfig{{Name: "acme", Key: "k", Quota: 10}}, s.TenantSpend())
	tenant, _ := tn.Lookup("acme")
	if tenant.Spent() != 7 {
		t.Fatalf("seeded spend %d, want 7", tenant.Spent())
	}
	// Only 3 queries left.
	inner := &fixedOracle{}
	wrapped := WrapOracle(tenant, inner)
	if _, err := wrapped.Predict(context.Background(), tensor.New(4, 4)); err == nil {
		t.Fatal("4-row batch should exceed the reseeded quota")
	}
	if _, err := wrapped.Predict(context.Background(), tensor.New(3, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimitTokenBucket(t *testing.T) {
	tn := NewTenancy([]TenantConfig{{Name: "a", Key: "k", RPS: 10}}, nil)
	tenant, _ := tn.Lookup("a")
	now := time.Now()
	// Burst capacity is 2×RPS.
	allowed := 0
	for i := 0; i < 50; i++ {
		if tenant.Allow(now) {
			allowed++
		}
	}
	if allowed != 20 {
		t.Fatalf("burst allowed %d, want 20", allowed)
	}
	// After one second, ~10 more tokens accrue.
	now = now.Add(time.Second)
	allowed = 0
	for i := 0; i < 50; i++ {
		if tenant.Allow(now) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("refill allowed %d, want 10", allowed)
	}
	// Unlimited tenants never throttle.
	tn2 := NewTenancy([]TenantConfig{{Name: "b", Key: "k2"}}, nil)
	b, _ := tn2.Lookup("b")
	for i := 0; i < 1000; i++ {
		if !b.Allow(now) {
			t.Fatal("unlimited tenant throttled")
		}
	}
}

func TestSchedulerFiresAndStops(t *testing.T) {
	fired := make(chan struct{}, 64)
	s := NewScheduler(5*time.Millisecond, func(ctx context.Context) {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	for i := 0; i < 3; i++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("scheduler never fired")
		}
	}
	s.Close()
	if s.Fired() < 3 {
		t.Fatalf("fired %d, want >= 3", s.Fired())
	}
	// No fires after Close.
	n := s.Fired()
	time.Sleep(30 * time.Millisecond)
	if s.Fired() != n {
		t.Fatal("scheduler fired after Close")
	}
}
