package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"testing"
)

// TestScreening runs the example and checks that the reject policy withholds
// exactly the rows the annotate policy flags: both servers screen the same
// batch with the same screener.
func TestScreening(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and a detector")
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^  row \d+ .* flagged=(true|false)$`).FindAllSubmatch(out.Bytes(), -1)
	if len(rows) != 12 {
		t.Fatalf("annotate listing has %d rows, want 12:\n%s", len(rows), out.String())
	}
	flagged := 0
	for _, r := range rows {
		if string(r[1]) == "true" {
			flagged++
		}
	}
	m := regexp.MustCompile(`(?m)^reject: .*: (\d+)/12 rows withheld$`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no reject line:\n%s", out.String())
	}
	if withheld, _ := strconv.Atoi(string(m[1])); withheld != flagged {
		t.Fatalf("reject policy withheld %d rows, annotate policy flagged %d:\n%s", withheld, flagged, out.String())
	}
}
