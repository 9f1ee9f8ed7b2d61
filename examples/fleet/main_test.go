package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestFleet runs the example and pins its verdict table: every model is
// audited server-side with the full 17410-query budget. At this demo scale
// the detector calls the BadNets upload CLEAN.
func TestFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model zoo and a detector")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(?m)^platform: 3 models live at .* \(LRU hot-set of 2, audits enabled\)$`,
		`(?m)^defender: badnets  -> CLEAN      \(job a\d, .*, 17410 queries in `,
		`(?m)^defender: clean    -> CLEAN      \(job a\d, .*, 17410 queries in `,
		`(?m)^defender: trojan   -> BACKDOORED \(job a\d, .*, 17410 queries in `,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("no line matches %s:\n%s", want, out.String())
		}
	}
	if n := len(regexp.MustCompile(`(?m)^defender: job a\d queued for `).FindAll(out.Bytes(), -1)); n != 3 {
		t.Errorf("%d jobs queued, want 3:\n%s", n, out.String())
	}
}
