package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bprom/internal/exp"
)

func TestListPrintsPaperOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	ids := strings.Fields(out.String())
	if len(ids) != 33 || !slices.Equal(ids, exp.IDs()) {
		t.Fatalf("-list printed %d ids %v, want the 33 of exp.IDs()", len(ids), ids)
	}
	if !slices.Equal(ids[:3], []string{"table1", "figure3", "table2"}) {
		t.Fatalf("-list starts %v, want table1 figure3 table2", ids[:3])
	}
}

func TestTableWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-table", "table13", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== table13:") {
		t.Fatalf("output lacks the table:\n%s", out.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "table13.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "attack,dataset,paper-poison,paper-cover,ours-poison,ours-cover\n"
	if !strings.HasPrefix(string(csv), want) {
		t.Fatalf("table13.csv starts %q, want header %q", strings.SplitN(string(csv), "\n", 2)[0], want)
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge", "-table", "table13"}, "tiny|small|full"},
		{nil, "pass -table"},
	} {
		err := run(tc.args, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) error = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
