// Command mlaas-server serves models as an MLaaS prediction endpoint (the
// black-box boundary of the paper's threat model). It runs in one of three
// modes: serve a single model file, serve a whole checkpoint directory as a
// multi-model registry with a bounded LRU hot-set, or train a demo model —
// optionally backdoored — on the synthetic CIFAR-10 analogue first.
//
// Given a detector artifact (-detector, from `bprom train -out`), the
// server additionally runs audit-as-a-service: asynchronous server-side
// BPROM audit jobs against its own hosted models on the /v1/audits routes —
// the paper's train-once / audit-many deployment.
//
// Usage:
//
//	mlaas-server -addr :8080 -model model.bin
//	mlaas-server -addr :8080 -models zoo/ -max-loaded 4    # serve a zoo
//	mlaas-server -addr :8080 -models zoo/ -detector detector.bpd   # + audits
//	mlaas-server -addr :8080 -demo badnets    # train a backdoored demo model
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight predict
// requests drain through http.Server.Shutdown, held audit waits answer
// their jobs' current snapshots, and running audit jobs are cancelled via
// their contexts before the model engines stop. /v1/healthz reports
// liveness and whether audits are enabled.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"bprom/internal/attack"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/jobstore"
	"bprom/internal/mlaas"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlaas-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		modelPath     = flag.String("model", "", "single model file to serve (nn binary format)")
		modelsDir     = flag.String("models", "", "checkpoint directory to serve as a multi-model registry")
		defaultModel  = flag.String("default", "", "registry model id served by the legacy /v1/info and /v1/predict routes (default: 'clean' if present, else first id)")
		maxLoaded     = flag.Int("max-loaded", 0, "registry LRU hot-set size: models resident at once (0: default 4)")
		demo          = flag.String("demo", "", "train a demo model instead: 'clean' or an attack name (badnets, blend, ...)")
		seed          = flag.Uint64("seed", 1, "demo training seed")
		maxBatch      = flag.Int("max-batch", 0, "samples per request and micro-batch coalescing target (0: default 512)")
		maxConcurrent = flag.Int("max-concurrent", 0, "parallel forward passes / micro-batch workers per model (0: default 4)")
		tensorWorkers = flag.Int("tensor-workers", 0, "shared tensor kernel pool size (0: BPROM_TENSOR_WORKERS or GOMAXPROCS)")
		detectorPath  = flag.String("detector", "", "detector artifact (.bpd, from 'bprom train') enabling server-side audit jobs on /v1/audits")
		auditWorkers  = flag.Int("audit-workers", 0, "concurrently running audit jobs (0: default 2)")
		auditQueue    = flag.Int("audit-queue", 0, "queued audit jobs before submissions get 429 (0: default 64)")
		jobsDir       = flag.String("jobs-dir", "", "durable audit-job directory: jobs journal here and resume bit-exactly after a restart (requires -detector)")
		keysPath      = flag.String("keys", "", "API-key file (tenant:key[:quota[:rps]] per line) enabling auth, per-tenant rate limits, and oracle-query quotas")
		reauditEvery  = flag.Duration("reaudit-every", 0, "re-audit every hosted model on this cadence (e.g. 12h; requires -detector; jobs attributed to tenant \"reaudit\")")
		screenPath    = flag.String("screen", "", "detector artifact (.bpd) enabling inline request screening: every predict row is scored with the learned prompt, fused into the same forward pass")
		screenThresh  = flag.Float64("screen-threshold", 0, "screening flag threshold in (0,1] (0: default)")
		screenPolicy  = flag.String("screen-policy", "annotate", "what to do with flagged inputs: 'annotate' (attach scores, serve anyway) or 'reject' (withhold their confidences)")
	)
	flag.Parse()
	// Size the kernel pool before any training or serving touches it. The
	// pool is shared by demo training and all micro-batch workers alike.
	tensor.SetWorkers(*tensorWorkers)

	modes := 0
	for _, set := range []bool{*modelPath != "", *modelsDir != "", *demo != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("pass exactly one of -model <path>, -models <dir>, or -demo clean|badnets|...")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Inline request screening: derive the serving-time screener from a
	// trained detector artifact's shadow prompts.
	var screener *vp.Screener
	if *screenPath != "" {
		if *screenPolicy != mlaas.ScreenAnnotate && *screenPolicy != mlaas.ScreenReject {
			return fmt.Errorf("-screen-policy %q: want %q or %q", *screenPolicy, mlaas.ScreenAnnotate, mlaas.ScreenReject)
		}
		det, err := bprom.LoadFile(*screenPath)
		if err != nil {
			return err
		}
		if screener, err = det.Screener(*screenThresh); err != nil {
			return err
		}
	}

	var srv *mlaas.Server
	var announce func(addr string)
	if *modelsDir != "" {
		reg, err := mlaas.OpenRegistry(*modelsDir, mlaas.RegistryConfig{
			MaxLoaded:     *maxLoaded,
			MaxBatch:      *maxBatch,
			MaxConcurrent: *maxConcurrent,
			Default:       *defaultModel,
			Screener:      screener,
			ScreenPolicy:  *screenPolicy,
		})
		if err != nil {
			return err
		}
		srv = mlaas.NewRegistryServer(reg)
		announce = func(addr string) {
			fmt.Printf("serving %d models from %s on http://%s (default %q, hot-set %d); Ctrl-C to stop\n",
				reg.Len(), *modelsDir, addr, reg.DefaultID(), reg.MaxLoaded())
			for _, mi := range reg.Models() {
				fmt.Printf("  /v1/models/%s  (%s, classes=%d dim=%d)\n", mi.ID, mi.Arch, mi.Classes, mi.InputDim)
			}
		}
	} else {
		var model *nn.Model
		switch {
		case *modelPath != "":
			m, err := nn.LoadFile(*modelPath)
			if err != nil {
				return err
			}
			model = m
		default:
			m, err := trainDemo(*demo, *seed)
			if err != nil {
				return err
			}
			model = m
		}
		if screener != nil && screener.InputDim() != model.InputDim {
			return fmt.Errorf("-screen: screener canvas %d does not match model input %d", screener.InputDim(), model.InputDim)
		}
		srv = mlaas.NewServer(model, mlaas.ServerConfig{
			Name:          "bprom-demo",
			MaxBatch:      *maxBatch,
			MaxConcurrent: *maxConcurrent,
			Screener:      screener,
			ScreenPolicy:  *screenPolicy,
		})
		announce = func(addr string) {
			fmt.Printf("serving on http://%s (classes=%d dim=%d); Ctrl-C to stop\n",
				addr, model.NumClasses, model.InputDim)
		}
	}

	if *detectorPath == "" {
		if *jobsDir != "" {
			return fmt.Errorf("-jobs-dir requires -detector (durable jobs need the audit service)")
		}
		if *reauditEvery > 0 {
			return fmt.Errorf("-reaudit-every requires -detector (re-audits need the audit service)")
		}
	}

	// The job store outlives the server: it is replayed before the audit
	// manager starts and closed only after Serve returns, so the shutdown
	// checkpoint flush always lands in the journal.
	var store *jobstore.Store
	if *jobsDir != "" {
		s, err := jobstore.Open(*jobsDir)
		if err != nil {
			return err
		}
		defer s.Close()
		store = s
	}

	// Tenancy before audits: EnableAudits quota-wraps resumed jobs' oracles
	// through the tenancy, so the key file (with its journal-seeded spend
	// ledgers) must be live before the journal replays.
	var notes []string
	if *keysPath != "" {
		tenants, err := jobstore.ParseKeyFile(*keysPath)
		if err != nil {
			return err
		}
		var seed map[string]int64
		if store != nil {
			seed = store.TenantSpend()
		}
		srv.EnableTenancy(jobstore.NewTenancy(tenants, seed))
		notes = append(notes, fmt.Sprintf("tenancy live: %d tenants from %s (mutating routes require Authorization: Bearer <key>)", len(tenants), *keysPath))
	}

	auditNote := "audits disabled (pass -detector to enable /v1/audits)"
	if *detectorPath != "" {
		det, err := bprom.LoadFile(*detectorPath)
		if err != nil {
			return err
		}
		if err := srv.EnableAudits(det, mlaas.AuditConfig{Workers: *auditWorkers, MaxQueued: *auditQueue, Store: store}); err != nil {
			return err
		}
		auditNote = fmt.Sprintf("audit-as-a-service live on /v1/audits (detector %s)", *detectorPath)
		if store != nil {
			auditNote += fmt.Sprintf("; durable jobs in %s (%d resumed)", *jobsDir, srv.Audits().Resumed())
		}
		if *reauditEvery > 0 {
			if err := srv.EnableReaudit(*reauditEvery, "reaudit"); err != nil {
				return err
			}
			notes = append(notes, fmt.Sprintf("re-audit scheduler live: full zoo sweep every %s", *reauditEvery))
		}
	}

	ready := make(chan string, 1)
	go func() {
		announce(<-ready)
		if screener != nil {
			fmt.Printf("inline screening live (policy %s, threshold %.3f, detector %s)\n",
				*screenPolicy, screener.Threshold(), *screenPath)
		}
		fmt.Println(auditNote)
		for _, n := range notes {
			fmt.Println(n)
		}
	}()
	return srv.Serve(ctx, *addr, ready)
}

func trainDemo(kind string, seed uint64) (*nn.Model, error) {
	gen := data.NewGenerator(data.MustSpec(data.CIFAR10), seed)
	train := gen.Generate(50, rng.New(seed))
	if kind != "clean" {
		cfg := attack.Config{Kind: attack.Kind(kind), PoisonRate: 0.15, Seed: seed}
		poisoned, _, err := attack.Poison(train, cfg, rng.New(seed+1))
		if err != nil {
			return nil, err
		}
		train = poisoned
		fmt.Printf("trained demo model carries a %s backdoor (target class 0)\n", kind)
	}
	m, err := nn.Build(nn.ArchConfig{
		Arch: nn.ArchConvLite, C: train.Shape.C, H: train.Shape.H, W: train.Shape.W,
		NumClasses: train.Classes, Hidden: 24,
	}, rng.New(seed+2))
	if err != nil {
		return nil, err
	}
	if _, err := trainer.Train(context.Background(), m, train, trainer.Config{Epochs: 14}, rng.New(seed+3)); err != nil {
		return nil, err
	}
	return m, nil
}
