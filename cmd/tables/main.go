// Command tables regenerates the paper's tables and figures.
//
// Usage:
//
//	tables -list
//	tables -table table5 -scale small
//	tables -all -scale tiny -csv out/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bprom/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	var (
		table  = fs.String("table", "", "experiment ID to run (see -list)")
		scale  = fs.String("scale", "tiny", "experiment scale: tiny | small | full")
		all    = fs.Bool("all", false, "run every experiment")
		list   = fs.Bool("list", false, "list experiment IDs")
		csvDir = fs.String("csv", "", "directory to also write CSV outputs into")
		seed   = fs.Uint64("seed", 1, "root seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Fprintln(w, id)
		}
		return nil
	}
	p, err := exp.ParamsFor(exp.Scale(*scale))
	if err != nil {
		return err
	}
	p.Seed = *seed

	var ids []string
	switch {
	case *all:
		ids = exp.IDs()
	case *table != "":
		ids = []string{*table}
	default:
		return fmt.Errorf("pass -table <id>, -all, or -list")
	}
	ctx := context.Background()
	for _, id := range ids {
		start := time.Now()
		t, err := exp.Run(ctx, id, p)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w, t.Render())
		fmt.Fprintf(w, "(%s in %s at scale %s)\n\n", id, time.Since(start).Round(time.Millisecond), *scale)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	return nil
}
