// Command bprom is the defender's CLI, split into the paper's two phases:
//
//	bprom train -out detector.bpd            # train once (offline)
//	bprom audit -detector detector.bpd ...   # audit many (online)
//
// train runs Algorithm 1 (shadow models + visual prompts + random-forest
// meta-classifier) and persists the result as a versioned .bpd detector
// artifact. audit loads such an artifact — no retraining — and inspects a
// suspicious model: a local checkpoint file, a remote MLaaS endpoint
// (black-box over HTTP), or, in fleet mode, every model a multi-model
// endpoint hosts by submitting asynchronous SERVER-SIDE audit jobs and
// rendering the verdict table from the server's results.
//
// Usage:
//
//	bprom train -out detector.bpd [-source cifar10] [-external stl10] [-scale small] [-shadows N] [-seed 42]
//	bprom audit -detector detector.bpd -model suspicious.bin
//	bprom audit -detector detector.bpd -url http://127.0.0.1:8080
//	bprom audit -url http://127.0.0.1:8080 -fleet
//
// Fleet mode needs no local detector: the server audits with the artifact
// it was started with (mlaas-server -detector), so the probe traffic never
// crosses the wire and any number of defender CLIs share one detector.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"bprom/internal/audit"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/exp"
	"bprom/internal/meta"
	"bprom/internal/mlaas"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bprom:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "train":
		return runTrain(args[1:])
	case "audit":
		return runAudit(args[1:])
	case "-h", "-help", "--help", "help":
		_ = usageError()
		return nil
	default:
		return usageError()
	}
}

func usageError() error {
	fmt.Fprint(os.Stderr, `usage:
  bprom train -out detector.bpd [-source cifar10] [-external stl10] [-scale small] [-shadows N] [-seed 42]
  bprom audit -detector detector.bpd -model suspicious.bin
  bprom audit -detector detector.bpd -url http://host:port
  bprom audit -url http://host:port -fleet
`)
	return fmt.Errorf("expected a 'train' or 'audit' subcommand")
}

// runTrain is the offline phase: train a detector once and persist it.
func runTrain(args []string) error {
	fs := flag.NewFlagSet("bprom train", flag.ExitOnError)
	var (
		out      = fs.String("out", "", "output detector artifact path (.bpd, required)")
		source   = fs.String("source", data.CIFAR10, "suspicious models' training domain")
		external = fs.String("external", data.STL10, "external clean dataset DT")
		scale    = fs.String("scale", "small", "detector scale: tiny | small | full")
		shadows  = fs.Int("shadows", 0, "override shadow count per class label (clean+backdoor)")
		seed     = fs.Uint64("seed", 42, "detector seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("train: -out is required")
	}
	p := exp.ParamsFor(exp.Scale(*scale))
	p.Seed = *seed
	if *shadows > 0 {
		p.ShadowClean, p.ShadowBackdoor = *shadows, *shadows
	}
	srcSpec, ok := data.SpecFor(*source)
	if !ok {
		return fmt.Errorf("unknown source dataset %q", *source)
	}
	extSpec, ok := data.SpecFor(*external)
	if !ok {
		return fmt.Errorf("unknown external dataset %q", *external)
	}
	det, err := trainDetector(context.Background(), p, *scale, srcSpec, extSpec)
	if err != nil {
		return err
	}
	if err := det.SaveFile(*out); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("detector artifact written: %s (%d bytes)\n", *out, st.Size())
	fmt.Printf("audit models with: bprom audit -detector %s -model <sus.bin>  (or serve it: mlaas-server -models zoo/ -detector %s)\n", *out, *out)
	return nil
}

// runAudit is the online phase: load a persisted detector (or use the
// server's, in fleet mode) and inspect suspicious models.
func runAudit(args []string) error {
	fs := flag.NewFlagSet("bprom audit", flag.ExitOnError)
	var (
		detPath   = fs.String("detector", "", "detector artifact (.bpd) from 'bprom train' (not used with -fleet)")
		modelPath = fs.String("model", "", "suspicious model checkpoint file")
		url       = fs.String("url", "", "suspicious MLaaS endpoint base URL")
		fleet     = fs.Bool("fleet", false, "submit server-side audit jobs for every model the endpoint hosts (requires -url)")
		key       = fs.String("key", "", "API key sent as Authorization: Bearer to the endpoint (required when the server runs with -keys)")
		timeout   = fs.Duration("timeout", 0, "per-request deadline against the endpoint (0: client default 30s); polling an audit job waits across many requests either way")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	if *fleet {
		if *url == "" {
			return fmt.Errorf("audit: -fleet requires -url")
		}
		if *detPath != "" {
			return fmt.Errorf("audit: -fleet audits with the SERVER's detector (mlaas-server -detector); drop -detector")
		}
		return auditFleet(ctx, *url, *key, *timeout)
	}
	if (*modelPath == "") == (*url == "") {
		return fmt.Errorf("audit: pass exactly one of -model or -url")
	}
	if *detPath == "" {
		return fmt.Errorf("audit: -detector is required (train one with 'bprom train -out detector.bpd')")
	}
	det, err := bprom.LoadFile(*detPath)
	if err != nil {
		return err
	}

	var sus oracle.Oracle
	var target string
	if *modelPath != "" {
		m, err := nn.LoadFile(*modelPath)
		if err != nil {
			return err
		}
		sus = oracle.NewModelOracle(m)
		target = *modelPath
	} else {
		c, err := mlaas.Dial(ctx, *url, mlaas.ClientConfig{APIKey: *key, Timeout: *timeout})
		if err != nil {
			return err
		}
		sus = c
		target = *url
	}
	if err := det.Compatible(sus.NumClasses(), sus.InputDim()); err != nil {
		return err
	}
	fmt.Printf("auditing %s with detector %s ...\n", target, *detPath)
	start := time.Now()
	v, err := det.Inspect(ctx, sus, 0)
	if err != nil {
		return err
	}
	verdict := "CLEAN"
	if v.Backdoored {
		verdict = "BACKDOORED"
	}
	fmt.Printf("verdict:           %s (in %s)\n", verdict, time.Since(start).Round(time.Millisecond))
	fmt.Printf("backdoor score:    %.3f (threshold %.3f)\n", v.Score, v.Threshold)
	fmt.Printf("prompted accuracy: %.3f (low accuracy = class-subspace inconsistency)\n", v.PromptedAcc)
	fmt.Printf("oracle queries:    %d samples\n", v.Queries)
	return nil
}

// trainDetector runs BPROM's Algorithm 1 once; the resulting detector is
// reusable across any number of suspicious models.
func trainDetector(ctx context.Context, p exp.Params, scale string, srcSpec, extSpec data.Spec) (*bprom.Detector, error) {
	r := rng.New(p.Seed)
	srcGen := data.NewGenerator(srcSpec, p.Seed^0x5151)
	_, srcTest := srcGen.GenerateSplit(1, p.SrcTest, r.Split("src"))
	tgtGen := data.NewGenerator(extSpec, p.Seed^0xA7A7)
	tgtTrain, tgtTest := tgtGen.GenerateSplit(p.TgtTrain, p.TgtTest, r.Split("tgt"))

	fmt.Printf("training detector (scale %s: %d+%d shadows) ...\n", scale, p.ShadowClean, p.ShadowBackdoor)
	start := time.Now()
	det, err := bprom.Train(ctx, bprom.Config{
		Reserved:      srcTest.Reserve(p.ReservedFrac, r.Split("reserve")),
		ExternalTrain: tgtTrain,
		ExternalTest:  tgtTest,
		NumClean:      p.ShadowClean,
		NumBackdoor:   p.ShadowBackdoor,
		ShadowArch:    nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: p.Hidden},
		ShadowTrain:   trainer.Config{Epochs: p.Epochs},
		PromptFrac:    p.PromptFrac,
		WhiteBox:      vp.WhiteBoxConfig{Epochs: p.WBEpochs},
		BlackBox:      vp.BlackBoxConfig{Iterations: p.CMAIters},
		QuerySamples:  p.QuerySamples,
		Forest:        meta.TrainConfig{Trees: p.ForestTrees},
		Seed:          p.Seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("detector ready in %s\n", time.Since(start).Round(time.Millisecond))
	return det, nil
}

// fleetResult is one audited model's outcome.
type fleetResult struct {
	info    mlaas.ModelInfo
	job     audit.Job
	skipped string // non-empty: submission rejected (incompatible model)
	err     error
}

// auditFleet discovers every model on the endpoint and submits one
// server-side audit job per model — the train-once / audit-many workload:
// the server runs the inspections in-process on its bounded audit worker
// pool, and the CLI only polls job state and renders the verdict table.
func auditFleet(ctx context.Context, url, key string, timeout time.Duration) error {
	cfg := mlaas.ClientConfig{APIKey: key, Timeout: timeout}
	h, err := mlaas.Healthz(ctx, url, cfg)
	if err != nil {
		return fmt.Errorf("endpoint health check: %w", err)
	}
	if !h.AuditsEnabled {
		return fmt.Errorf("endpoint does not run the audit service; start it with mlaas-server -detector <artifact.bpd>")
	}
	list, err := mlaas.ListModels(ctx, url, cfg)
	if err != nil {
		return err
	}
	if len(list.Models) == 0 {
		return fmt.Errorf("endpoint hosts no models")
	}
	fmt.Printf("endpoint hosts %d models; submitting server-side audit jobs ...\n", len(list.Models))

	results := make([]fleetResult, len(list.Models))
	var wg sync.WaitGroup
	start := time.Now()
	for i, mi := range list.Models {
		wg.Add(1)
		go func(i int, mi mlaas.ModelInfo) {
			defer wg.Done()
			results[i].info = mi
			c, err := mlaas.DialModel(ctx, url, mi.ID, cfg)
			if err != nil {
				results[i].err = err
				return
			}
			// Explicit inspect ids make fleet runs reproducible: model i is
			// always inspected on RNG stream i.
			job, err := c.AuditModel(ctx, i)
			if err != nil {
				// Only a detector-incompatibility rejection (400) is a
				// legitimate skip; queue pressure, server trouble, and
				// network failures must count as failed audits.
				var se *mlaas.StatusError
				if errors.As(err, &se) && se.Code == http.StatusBadRequest {
					results[i].skipped = se.Msg
				} else {
					results[i].err = err
				}
				return
			}
			final, err := c.WaitAudit(ctx, job.ID)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].job = final
		}(i, mi)
	}
	wg.Wait()

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	// The node column shows which gateway backend ran each job, the tenant
	// column which API-key tenant the server billed it to ("-" against a
	// single server or an un-tenanted endpoint). The migrated column names
	// the job a migrating gateway resumed this one from ("-" for jobs that
	// never moved). Queries is the oracle spend the tenant's ledger was
	// charged — reported even for FAILED jobs, where a quota-exhausted audit
	// still spent its partial budget.
	fmt.Fprintln(w, "model\tjob\tnode\tmigrated\ttenant\tverdict\tscore\tprompted-acc\tqueries")
	flagged, audited, failed := 0, 0, 0
	for _, res := range results {
		node, tenant, migrated := res.job.Node, res.job.Tenant, res.job.MigratedFrom
		if node == "" {
			node = "-"
		}
		if tenant == "" {
			tenant = "-"
		}
		if migrated == "" {
			migrated = "-"
		}
		switch {
		case res.err != nil:
			failed++
			fmt.Fprintf(w, "%s\t-\t-\t-\t-\tERROR\t-\t-\t-\n", res.info.ID)
		case res.skipped != "":
			fmt.Fprintf(w, "%s\t-\t-\t-\t-\tSKIPPED\t-\t-\t-\n", res.info.ID)
		case res.job.State != audit.StateDone || res.job.Verdict == nil:
			failed++
			verdict := "FAILED"
			if res.job.ErrorCode != "" {
				verdict = "FAILED:" + res.job.ErrorCode
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t-\t-\t%d\n",
				res.info.ID, res.job.ID, node, migrated, tenant, verdict, res.job.Progress.Queries)
		default:
			audited++
			v := res.job.Verdict
			verdict := "CLEAN"
			if v.Backdoored {
				verdict = "BACKDOORED"
				flagged++
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%.3f\t%.3f\t%d\n",
				res.info.ID, res.job.ID, node, migrated, tenant, verdict, v.Score, v.PromptedAcc, v.Queries)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nfleet audit done in %s: %d/%d flagged BACKDOORED (server-side jobs; detector never left the server)\n",
		time.Since(start).Round(time.Millisecond), flagged, audited)
	for _, res := range results {
		if res.skipped != "" {
			fmt.Printf("  %s skipped: %s\n", res.info.ID, res.skipped)
		}
		if res.err != nil {
			fmt.Printf("  %s failed: %v\n", res.info.ID, res.err)
		}
		if res.err == nil && res.skipped == "" && res.job.State == audit.StateFailed {
			fmt.Printf("  %s job %s failed: %s\n", res.info.ID, res.job.ID, res.job.Error)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d audits failed", failed, len(list.Models))
	}
	return nil
}
