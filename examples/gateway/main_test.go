package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestGateway runs the example and pins its fleet audit and its failover:
// the audit whose owner is killed migrates to the survivor, and the migrated
// job continues the id the caller was handed before the kill.
func TestGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model zoo and a detector")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(?m)^defender: badnets  -> CLEAN      \(job n\d\.a\d, node n\d, .*, 17410 queries\)$`,
		`(?m)^defender: clean    -> CLEAN      \(job n\d\.a\d, node n\d, .*, 17410 queries\)$`,
		`(?m)^gateway: predicts kept answering; fleet now 1/2 healthy \(status degraded\), 1 job\(s\) migrated$`,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("no line matches %s:\n%s", want, out.String())
		}
	}
	m := regexp.MustCompile(`(?m)^gateway: audit migrated (\S+) -> (\S+) \(node n\d, continues (\S+)\): .*, 17410 queries$`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no migration line:\n%s", out.String())
	}
	if preKill, moved, from := string(m[1]), string(m[2]), string(m[3]); from != preKill || moved == preKill {
		t.Fatalf("job %s migrated to %s continuing %s; want a new id continuing %s", preKill, moved, from, preKill)
	}
}
