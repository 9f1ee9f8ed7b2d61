package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestQuickstart runs the example and pins its verdict lines: both models
// are audited with the full 17410-query budget, and at this demo scale the
// backdoored model's score sits above the clean one's but under the
// detector's threshold.
func TestQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and a detector")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(?m)^clean model      -> CLEAN: .*, 17410 queries$`,
		`(?m)^backdoored model -> CLEAN: .*, 17410 queries$`,
		`(?m)^score ordering: the backdoored model scores above the clean one$`,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("no line matches %s:\n%s", want, out.String())
		}
	}
}
