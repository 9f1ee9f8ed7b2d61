// Gateway example: the multi-node serving plane in one process. A zoo of
// checkpoints — clean and backdoored — is exported to disk and served by
// TWO mlaas-server nodes (each a registry over the same zoo build, each
// holding the train-once detector artifact reloaded from disk). An
// mlaas-gateway fronts them as one endpoint speaking the exact single-node
// wire API: models are placed on nodes by rendezvous hashing with
// replication, membership is health-checked, and audit jobs come back with
// namespaced ids ("n0.a2" = node n0's job a2). The defender fleet-audits
// THROUGH the gateway — verdicts bit-identical to auditing either node
// directly — and then the node OWNING a running audit is killed mid-run:
// the gateway marks it down, fails predicts over to the survivor, and its
// migration supervisor re-homes the audit job onto the survivor, where it
// completes under its original id with the same verdict the dead node
// would have produced.
//
// This is the in-process twin of the CLI topology:
//
//	attackzoo -export zoo/
//	bprom train -out detector.bpd
//	mlaas-server -addr :8081 -models zoo/ -detector detector.bpd
//	mlaas-server -addr :8082 -models zoo/ -detector detector.bpd
//	mlaas-gateway -nodes http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -replication 2 -migrate -migrate-grace 200ms
//	bprom audit -url http://127.0.0.1:8100 -fleet -timeout 5s
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"bprom/internal/attack"
	"bprom/internal/audit"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/mlaas"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/trainer"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	srcGen := data.NewGenerator(data.MustSpec(data.CIFAR10), 1)
	srcTrain, srcTest := srcGen.GenerateSplit(50, 150, rng.New(2))
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 3)
	tgtTrain, tgtTest := tgtGen.GenerateSplit(20, 10, rng.New(4))

	// Materialize the zoo once; every node serves the same build (the
	// uniform-fleet assumption the gateway documents).
	work, err := os.MkdirTemp("", "bprom-gateway-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	zoo := filepath.Join(work, "zoo")
	if err := os.MkdirAll(zoo, 0o755); err != nil {
		return err
	}
	uploads := []struct {
		id   string
		seed uint64
		atk  *attack.Config
	}{
		{"clean", 0, nil},
		// Seed offset 2 matches the examples/fleet badnets upload, keeping
		// the demo checkpoints (and verdicts) consistent across examples.
		{"badnets", 2, &attack.Config{Kind: attack.BadNets, PoisonRate: 0.15, Target: 0, Seed: 6}},
	}
	fmt.Fprintf(w, "attacker: uploading %d models to the platform ...\n", len(uploads))
	for _, up := range uploads {
		train := srcTrain
		note := "clean upload"
		if up.atk != nil {
			poisoned, _, err := attack.Poison(srcTrain, *up.atk, rng.New(20+up.seed))
			if err != nil {
				return err
			}
			train = poisoned
			note = fmt.Sprintf("backdoored upload (%s)", up.atk.Kind)
		}
		model, err := nn.Build(nn.ArchConfig{
			Arch: nn.ArchConvLite, C: srcTrain.Shape.C, H: srcTrain.Shape.H, W: srcTrain.Shape.W,
			NumClasses: srcTrain.Classes, Hidden: 24,
		}, rng.New(30+up.seed))
		if err != nil {
			return err
		}
		if _, err := trainer.Train(ctx, model, train, trainer.Config{Epochs: 14}, rng.New(40+up.seed)); err != nil {
			return err
		}
		path := filepath.Join(zoo, up.id+".bin")
		if err := model.SaveFile(path); err != nil {
			return err
		}
		if err := nn.SidecarFor(model, "zoo/"+up.id, note).WriteFile(path); err != nil {
			return err
		}
	}

	// Train the detector ONCE; both nodes reload the artifact from disk.
	fmt.Fprintln(w, "defender: training BPROM detector once ...")
	det, err := bprom.Train(ctx, bprom.Config{
		Reserved:      srcTest.Reserve(0.10, rng.New(9)),
		ExternalTrain: tgtTrain,
		ExternalTest:  tgtTest,
		NumClean:      6,
		NumBackdoor:   6,
		ShadowArch:    nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: 24},
		ShadowTrain:   trainer.Config{Epochs: 14},
		Seed:          42,
	})
	if err != nil {
		return err
	}
	artifact := filepath.Join(work, "detector.bpd")
	if err := det.SaveFile(artifact); err != nil {
		return err
	}

	// Two independent serving nodes over the same zoo + artifact.
	const nodeCount = 2
	nodeURLs := make([]string, nodeCount)
	serveErrs := make([]chan error, nodeCount)
	cancels := make([]context.CancelFunc, nodeCount)
	for i := 0; i < nodeCount; i++ {
		loaded, err := bprom.LoadFile(artifact)
		if err != nil {
			return err
		}
		reg, err := mlaas.OpenRegistry(zoo, mlaas.RegistryConfig{MaxLoaded: len(uploads)})
		if err != nil {
			return err
		}
		server := mlaas.NewRegistryServer(reg)
		if err := server.EnableAudits(loaded, mlaas.AuditConfig{Workers: 2}); err != nil {
			return err
		}
		nodeCtx, nodeCancel := context.WithCancel(ctx)
		cancels[i] = nodeCancel
		ready := make(chan string, 1)
		serveErrs[i] = make(chan error, 1)
		go func(ch chan error) { ch <- server.Serve(nodeCtx, "127.0.0.1:0", ready) }(serveErrs[i])
		nodeURLs[i] = "http://" + <-ready
		fmt.Fprintf(w, "platform: node n%d serving %d models at %s\n", i, reg.Len(), nodeURLs[i])
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// One gateway in front: same wire API, fleet-wide membership. The
	// migration supervisor is on with a short grace window so the demo's
	// node kill re-homes the running audit within a few sweeps.
	gw, err := mlaas.NewGateway(ctx, mlaas.GatewayConfig{
		Nodes:          nodeURLs,
		Replication:    nodeCount,
		HealthInterval: 100 * time.Millisecond,
		MarkDownAfter:  1,
		MarkUpAfter:    1,
		Migration: mlaas.MigrationConfig{
			Enabled:  true,
			Grace:    200 * time.Millisecond,
			Interval: 100 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	gwServer := mlaas.NewGatewayServer(gw)
	gwReady := make(chan string, 1)
	gwErr := make(chan error, 1)
	gwCtx, gwCancel := context.WithCancel(ctx)
	defer gwCancel()
	go func() { gwErr <- gwServer.Serve(gwCtx, "127.0.0.1:0", gwReady) }()
	base := "http://" + <-gwReady
	h, err := mlaas.Healthz(ctx, base, mlaas.ClientConfig{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gateway: %s fronting %d/%d healthy nodes (status %s, audits enabled %v)\n",
		base, h.HealthyNodes, h.Nodes, h.Status, h.AuditsEnabled)

	// Fleet audit THROUGH the gateway: jobs land on their rendezvous
	// primary and come back namespaced; verdicts are bit-identical to
	// auditing a node directly.
	list, err := mlaas.ListModels(ctx, base, mlaas.ClientConfig{})
	if err != nil {
		return err
	}
	for i, mi := range list.Models {
		client, err := mlaas.DialModel(ctx, base, mi.ID, mlaas.ClientConfig{AuditPoll: 50 * time.Millisecond})
		if err != nil {
			return err
		}
		job, err := client.AuditModel(ctx, i)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "defender: job %s queued for %s on node %s\n", job.ID, mi.ID, job.Node)
		if job, err = client.WaitAudit(ctx, job.ID); err != nil {
			return err
		}
		if job.State != audit.StateDone || job.Verdict == nil {
			return fmt.Errorf("job %s for %s ended %s: %s", job.ID, job.ModelID, job.State, job.Error)
		}
		verdict := "CLEAN"
		if job.Verdict.Backdoored {
			verdict = "BACKDOORED"
		}
		fmt.Fprintf(w, "defender: %-8s -> %-10s (job %s, node %s, score %.3f, %d queries)\n",
			mi.ID, verdict, job.ID, job.Node, job.Verdict.Score, job.Verdict.Queries)
	}

	// Fault injection: submit one more audit, then kill the node that OWNS
	// it mid-run. The probe loop marks the owner down, predicts fail over
	// to the survivor, and — after the grace window — the migration
	// supervisor re-submits the job to the survivor with the newest
	// exported checkpoint. The original namespaced id keeps answering the
	// whole way, and the verdict is the one the dead node owed.
	auditClient, err := mlaas.DialModel(ctx, base, "badnets", mlaas.ClientConfig{AuditPoll: 50 * time.Millisecond})
	if err != nil {
		return err
	}
	job, err := auditClient.AuditModel(ctx, 7)
	if err != nil {
		return err
	}
	victim := int(job.Node[len(job.Node)-1] - '0')
	survivor := 1 - victim
	fmt.Fprintf(w, "chaos: job %s is running on node %s — killing that node ...\n", job.ID, job.Node)
	cancels[victim]()
	if err := <-serveErrs[victim]; err != nil {
		return err
	}

	client, err := mlaas.DialModel(ctx, base, "clean", mlaas.ClientConfig{})
	if err != nil {
		return err
	}
	x := tensor.New(1, client.InputDim())
	rng.New(7).Uniform(x.Data, 0, 1)
	for i := 0; i < 3; i++ {
		if _, err := client.Predict(ctx, x.Clone()); err != nil {
			return fmt.Errorf("predict after node kill: %w", err)
		}
	}

	// The pre-kill id rides through the 503 window: WaitAudit keeps
	// polling, the supervisor migrates, and the gateway forwards the old
	// id to the new job on the survivor.
	migCtx, migCancel := context.WithTimeout(ctx, 2*time.Minute)
	defer migCancel()
	moved, err := auditClient.WaitAudit(migCtx, job.ID)
	if err != nil {
		return fmt.Errorf("wait for migrated audit: %w", err)
	}
	if moved.State != audit.StateDone || moved.Verdict == nil {
		return fmt.Errorf("migrated job ended %s: %s", moved.State, moved.Error)
	}
	fmt.Fprintf(w, "gateway: audit migrated %s -> %s (node n%d, continues %s): score %.3f, %d queries\n",
		job.ID, moved.ID, survivor, moved.MigratedFrom, moved.Verdict.Score, moved.Verdict.Queries)

	deadline := time.Now().Add(5 * time.Second)
	for h.HealthyNodes != 1 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if h, err = mlaas.Healthz(ctx, base, mlaas.ClientConfig{}); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "gateway: predicts kept answering; fleet now %d/%d healthy (status %s), %d job(s) migrated\n",
		h.HealthyNodes, h.Nodes, h.Status, h.MigratedJobs)

	gwCancel()
	if err := <-gwErr; err != nil {
		return err
	}
	cancels[survivor]()
	if err := <-serveErrs[survivor]; err != nil {
		return err
	}
	return nil
}
