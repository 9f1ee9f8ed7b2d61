package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"bprom/internal/bprom"
	"bprom/internal/jobstore"
	"bprom/internal/mlaas"
)

// The serving stack under test, assembled the way cmd/mlaas-server and
// cmd/mlaas-gateway assemble it, on real loopback TCP listeners.

const (
	benchTenant = "bench"
	benchKey    = "bench-key"
	// benchQuota is high enough that no run exhausts it: the quota wrapper
	// is on the audit hot path for its cost, not to reject anything.
	benchQuota = int64(1) << 40
)

// listener is one http.Server on a loopback socket.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its Serve goroutine.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// nodeConfig selects what one registry node runs.
type nodeConfig struct {
	maxBatch int    // 0: the registry default (512)
	jobsDir  string // non-empty: tenancy + durable audits, as production runs them
	detPath  string
	wrap     func(http.Handler) http.Handler // nil: serve Server.Handler() as is
}

// node is one mlaas registry server with its listener and, when it runs
// audits, its journal and tenant ledger.
type node struct {
	*listener
	srv     *mlaas.Server
	reg     *mlaas.Registry
	store   *jobstore.Store
	tenancy *jobstore.Tenancy
	detLoad time.Duration // bprom.LoadFile during set-up, reported per layer
}

func startNode(zooDir string, cfg nodeConfig) (*node, error) {
	reg, err := mlaas.OpenRegistry(zooDir, mlaas.RegistryConfig{MaxLoaded: len(zooIDs()), MaxBatch: cfg.maxBatch})
	if err != nil {
		return nil, err
	}
	n := &node{srv: mlaas.NewRegistryServer(reg), reg: reg}
	if cfg.jobsDir != "" {
		t0 := time.Now()
		det, err := bprom.LoadFile(cfg.detPath)
		if err != nil {
			n.srv.Close()
			return nil, err
		}
		n.detLoad = time.Since(t0)
		if n.store, err = jobstore.Open(cfg.jobsDir); err != nil {
			n.srv.Close()
			return nil, err
		}
		n.tenancy = jobstore.NewTenancy([]jobstore.TenantConfig{
			{Name: benchTenant, Key: benchKey, Quota: benchQuota},
		}, n.store.TenantSpend())
		n.srv.EnableTenancy(n.tenancy)
		if err := n.srv.EnableAudits(det, mlaas.AuditConfig{Workers: 2, Store: n.store, CheckpointEvery: 1}); err != nil {
			n.srv.Close()
			n.store.Close()
			return nil, err
		}
	}
	h := n.srv.Handler()
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	if n.listener, err = listen(h); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// stop shuts down the listener, drains the server (audit manager, engines)
// and closes the journal, in the order cmd/mlaas-server does.
func (n *node) stop() error {
	var err error
	if n.listener != nil {
		err = n.listener.stop()
	}
	n.srv.Close()
	if n.store != nil {
		if cerr := n.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// gateway is an mlaas-gateway over nodes: replication 1, probes on,
// migration off.
type gateway struct {
	*listener
	srv *mlaas.Server
}

func startGateway(ctx context.Context, nodes []*node, hc *http.Client, wrap func(http.Handler) http.Handler) (*gateway, error) {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	g, err := mlaas.NewGateway(ctx, mlaas.GatewayConfig{
		Nodes:       urls,
		Replication: 1,
		Client:      mlaas.ClientConfig{HTTPClient: hc},
	})
	if err != nil {
		return nil, err
	}
	gw := &gateway{srv: mlaas.NewGatewayServer(g)}
	h := gw.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	if gw.listener, err = listen(h); err != nil {
		gw.srv.Close()
		return nil, err
	}
	return gw, nil
}

func (g *gateway) stop() error {
	err := g.listener.stop()
	g.srv.Close()
	return err
}
