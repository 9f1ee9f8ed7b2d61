package mlaas

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bprom/internal/audit"
	"bprom/internal/bprom"
	"bprom/internal/jobstore"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Gateway-vs-single-node bit-parity suite: the routing layer must be
// behaviorally invisible. Confidences, screening scores, and audit
// verdicts through a gateway over N nodes are asserted bit-identical to
// one in-process node serving the same zoo, extending the parity chain
// (in-process == wire == artifact round-trip) across one more boundary.
// Anything less is drift an adaptive attacker can exploit to tell audit
// traffic from the real serving path.

// gatewayParityZoo copies the shared audit zoo's trained checkpoints, the
// models every parity assertion runs over.
func gatewayParityZoo(t *testing.T) string {
	t.Helper()
	env := sharedAuditEnv(t)
	dir := t.TempDir()
	for _, id := range parityModelIDs() {
		raw, err := os.ReadFile(filepath.Join(env.zoo, id+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".bin"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// startParityNode serves zoo with audits + screening from the shared
// artifact — the exact single-node configuration the gateway's nodes run.
func startParityNode(t *testing.T, zoo string) *httptest.Server {
	t.Helper()
	env := sharedAuditEnv(t)
	det, err := bprom.LoadFile(env.artPath)
	if err != nil {
		t.Fatal(err)
	}
	screener, err := det.Screener(0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(zoo, RegistryConfig{MaxLoaded: 4, Screener: screener})
	if err != nil {
		t.Fatal(err)
	}
	s := NewRegistryServer(reg)
	if err := s.EnableAudits(det, AuditConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// startParityGateway fronts nodeCount parity nodes with a gateway and
// returns its HTTP endpoint.
func startParityGateway(t *testing.T, zoo string, nodeCount int) (*httptest.Server, *Gateway) {
	t.Helper()
	nodes := make([]string, nodeCount)
	for i := range nodes {
		nodes[i] = startParityNode(t, zoo).URL
	}
	g, err := NewGateway(context.Background(), GatewayConfig{
		Nodes:          nodes,
		HealthInterval: time.Hour, // membership driven manually in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGatewayServer(g)
	t.Cleanup(gs.Close)
	srv := httptest.NewServer(gs.Handler())
	t.Cleanup(srv.Close)
	return srv, g
}

func parityModelIDs() []string {
	return []string{"clean", "badnets"}
}

// TestGatewayPredictParity asserts confidences AND screening outcomes
// through the gateway are bit-identical to a single node, per model.
func TestGatewayPredictParity(t *testing.T) {
	zoo := gatewayParityZoo(t)
	single := startParityNode(t, zoo)
	gateway, _ := startParityGateway(t, zoo, 2)
	ctx := context.Background()

	for _, id := range parityModelIDs() {
		ref, err := DialModel(ctx, single.URL, id, ClientConfig{Retries: NoRetries})
		if err != nil {
			t.Fatal(err)
		}
		gw, err := DialModel(ctx, gateway.URL, id, ClientConfig{Retries: NoRetries})
		if err != nil {
			t.Fatal(err)
		}
		if gw.NumClasses() != ref.NumClasses() || gw.InputDim() != ref.InputDim() ||
			gw.Screened() != ref.Screened() ||
			gw.ScreenPolicy() != ref.ScreenPolicy() {
			t.Fatalf("%s: gateway metadata diverges from node: %+v vs %+v", id, gw, ref)
		}
		x := tensor.New(6, ref.InputDim())
		rng.New(99).Uniform(x.Data, 0, 1)
		wantProbs, wantScr, err := ref.PredictScreened(ctx, x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		gotProbs, gotScr, err := gw.PredictScreened(ctx, x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantProbs.Data {
			if gotProbs.Data[i] != wantProbs.Data[i] {
				t.Fatalf("%s: confidence %d differs through gateway: %v vs %v",
					id, i, gotProbs.Data[i], wantProbs.Data[i])
			}
		}
		if len(gotScr) != len(wantScr) {
			t.Fatalf("%s: screening length %d vs %d", id, len(gotScr), len(wantScr))
		}
		for i := range wantScr {
			if gotScr[i] != wantScr[i] {
				t.Fatalf("%s: screening %d differs through gateway: %+v vs %+v",
					id, i, gotScr[i], wantScr[i])
			}
		}
		if !ref.Screened() {
			t.Fatalf("%s: parity fixture should serve screened models", id)
		}
	}
}

// TestGatewayPredictWireParity is the predict row of the envelope parity
// suite, once per spelling: the same batch posted raw to a node and to the
// gateway, in JSON and in the binary frame. Each spelling's two replies are
// byte-identical, and all four decode to the same confidences and the same
// screening block bit for bit.
func TestGatewayPredictWireParity(t *testing.T) {
	zoo := gatewayParityZoo(t)
	single := startParityNode(t, zoo)
	gateway, _ := startParityGateway(t, zoo, 2)
	ctx := context.Background()

	for _, id := range parityModelIDs() {
		ref, err := DialModel(ctx, single.URL, id, ClientConfig{Retries: NoRetries})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(6, ref.InputDim())
		rng.New(99).Uniform(x.Data, 0, 1)
		want, wantScr, err := ref.PredictScreened(ctx, x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if wantScr == nil {
			t.Fatalf("%s: parity fixture should serve screened models", id)
		}
		for _, ct := range wireCodecs {
			req, err := appendPredictRequest(nil, ct, x.Data, ref.InputDim(), false)
			if err != nil {
				t.Fatal(err)
			}
			replies := make(map[string][]byte)
			for name, base := range map[string]string{"node": single.URL, "gateway": gateway.URL} {
				status, gotCT, raw := postPredict(t, base+"/v1/models/"+id+"/predict", ct, req)
				if status != 200 || gotCT != ct {
					t.Fatalf("%s via %s in %s: %d %s %q", id, name, ct, status, gotCT, raw)
				}
				got, scr, malformed, err := parsePredictResponse(nil, ct, raw, 6, ref.NumClasses())
				if err != nil || malformed {
					t.Fatalf("%s via %s in %s: %v", id, name, ct, err)
				}
				sameBits(t, id+" via "+name+" in "+ct, got, want)
				if !reflect.DeepEqual(scr, wantScr) {
					t.Fatalf("%s via %s in %s: screening %+v, want %+v", id, name, ct, scr, wantScr)
				}
				replies[name] = raw
			}
			if !bytes.Equal(replies["node"], replies["gateway"]) {
				t.Fatalf("%s in %s: the gateway's reply differs from the node's\n node    %q\n gateway %q", id, ct, replies["node"], replies["gateway"])
			}
		}
	}
}

// TestGatewayAuditVerdictParity is the fleet-audit acceptance check:
// submitting the same (model, inspect id) audit through the gateway and
// against a single node must yield bit-identical verdicts for every model
// in the golden zoo. Jobs routed by the gateway carry
// their namespaced id and node tag.
func TestGatewayAuditVerdictParity(t *testing.T) {
	zoo := gatewayParityZoo(t)
	single := startParityNode(t, zoo)
	gateway, _ := startParityGateway(t, zoo, 2)
	ctx := context.Background()

	for i, id := range parityModelIDs() {
		ref, err := DialModel(ctx, single.URL, id, ClientConfig{AuditPoll: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		gw, err := DialModel(ctx, gateway.URL, id, ClientConfig{AuditPoll: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		inspectID := 300 + i
		refJob, err := ref.AuditModel(ctx, inspectID)
		if err != nil {
			t.Fatal(err)
		}
		gwJob, err := gw.AuditModel(ctx, inspectID)
		if err != nil {
			t.Fatal(err)
		}
		if gwJob.Node == "" || !strings.HasPrefix(gwJob.ID, gwJob.Node+".") {
			t.Fatalf("%s: gateway job not namespaced: %+v", id, gwJob)
		}
		refFinal, err := ref.WaitAudit(ctx, refJob.ID)
		if err != nil {
			t.Fatal(err)
		}
		gwFinal, err := gw.WaitAudit(ctx, gwJob.ID)
		if err != nil {
			t.Fatal(err)
		}
		if refFinal.State != "done" || refFinal.Verdict == nil {
			t.Fatalf("%s: single-node audit did not finish: %+v", id, refFinal)
		}
		if gwFinal.State != "done" || gwFinal.Verdict == nil {
			t.Fatalf("%s: gateway audit did not finish: %+v", id, gwFinal)
		}
		if *gwFinal.Verdict != *refFinal.Verdict {
			t.Fatalf("%s: gateway verdict %+v != single-node %+v", id, *gwFinal.Verdict, *refFinal.Verdict)
		}
		if gwFinal.Node != gwJob.Node {
			t.Fatalf("%s: job node changed across poll: %q vs %q", id, gwFinal.Node, gwJob.Node)
		}
	}
}

// TestGatewayListingMatchesNode pins the merged-zoo view: same ids, same
// metadata, same default as the nodes it fronts.
func TestGatewayListingMatchesNode(t *testing.T) {
	zoo := gatewayParityZoo(t)
	single := startParityNode(t, zoo)
	gateway, _ := startParityGateway(t, zoo, 2)
	ctx := context.Background()

	want, err := ListModels(ctx, single.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ListModels(ctx, gateway.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Default != want.Default {
		t.Fatalf("gateway default %q != node default %q", got.Default, want.Default)
	}
	if len(got.Models) != len(want.Models) {
		t.Fatalf("gateway lists %d models, node %d", len(got.Models), len(want.Models))
	}
	for i := range want.Models {
		g, w := got.Models[i], want.Models[i]
		// Loaded/ResidentBytes are node-local hot-set state and may differ.
		g.Loaded, w.Loaded = false, false
		g.ResidentBytes, w.ResidentBytes = 0, 0
		if g != w {
			t.Fatalf("model %d diverges through gateway: %+v vs %+v", i, g, w)
		}
	}
}

// wireEnvelope is what the audit-route envelope case compares across the
// routing hop: the status code, the error envelope's machine-readable code,
// the Retry-After hint, and — for tenant usage — the payload itself. Error
// messages are deliberately left out: the gateway prefixes them with the
// node name.
type wireEnvelope struct {
	Status     int
	Code       string
	RetryAfter string
	Usage      TenantUsage
}

func fetchEnvelope(t *testing.T, method, url, key string) wireEnvelope {
	t.Helper()
	var body io.Reader
	if method == http.MethodPost {
		body = strings.NewReader("{}")
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	env := wireEnvelope{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		_ = json.Unmarshal(raw, &env.Usage)
	} else {
		var er errorResponse
		_ = json.Unmarshal(raw, &er)
		env.Code = er.Code
	}
	return env
}

// TestGatewayAuditEnvelopeParity pins the audit-job and usage routes' wire
// envelopes across the routing hop: the same request against a bare node
// and against a gateway over that node must answer with the same status,
// the same envelope code, and the same Retry-After — at the default
// MarkDownAfter, so a node's 501s must not count as health strikes.
func TestGatewayAuditEnvelopeParity(t *testing.T) {
	env := sharedAuditEnv(t)
	ctx := context.Background()
	const key = "ka"

	// front puts a one-node gateway over node.
	front := func(node *httptest.Server) *httptest.Server {
		g, err := NewGateway(ctx, GatewayConfig{Nodes: []string{node.URL}, HealthInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		gs := NewGatewayServer(g)
		t.Cleanup(gs.Close)
		srv := httptest.NewServer(gs.Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	type probe struct {
		name, method, nodePath, gwPath string
		want                           int
	}
	check := func(node, gw *httptest.Server, probes []probe) {
		t.Helper()
		for _, p := range probes {
			n := fetchEnvelope(t, p.method, node.URL+p.nodePath, key)
			g := fetchEnvelope(t, p.method, gw.URL+p.gwPath, key)
			if n.Status != p.want {
				t.Errorf("%s: node answered %d, want %d", p.name, n.Status, p.want)
			}
			if g != n {
				t.Errorf("%s: gateway envelope %+v != node envelope %+v", p.name, g, n)
			}
		}
	}

	// A full platform node: tenancy, audits, one worker and one queue slot
	// so a stalled job and a queued one fill it deterministically.
	det, err := bprom.LoadFile(env.artPath)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(env.zoo, RegistryConfig{MaxLoaded: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewRegistryServer(reg)
	s.EnableTenancy(jobstore.NewTenancy([]jobstore.TenantConfig{{Name: "acme", Key: key, Quota: 1 << 20}}, nil))
	if err := s.EnableAudits(det, AuditConfig{Workers: 1, MaxQueued: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	node := httptest.NewServer(s.Handler())
	t.Cleanup(node.Close)
	gw := front(node)

	c, err := DialModel(ctx, node.URL, "clean", ClientConfig{APIKey: key, AuditPoll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.AuditModel(ctx, 41)
	if err != nil {
		t.Fatal(err)
	}
	if done, err = c.WaitAudit(ctx, done.ID); err != nil || done.State != audit.StateDone {
		t.Fatalf("reference audit did not finish: %+v, %v", done, err)
	}

	info, err := reg.Info("clean")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	stall := newStallOracle(info.Classes, info.InputDim, release)
	wedged, err := s.Audits().Submit("clean", "acme", stall, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The second stalled job is accepted once the worker has picked the
	// first one up; it then holds the only queue slot.
	<-stall.entered
	if _, err := s.Audits().Submit("clean", "acme", stall, 2); err != nil {
		t.Fatal(err)
	}

	check(node, gw, []probe{
		{"poll unknown job", http.MethodGet, "/v1/audits/a999", "/v1/audits/n0.a999", 404},
		{"cancel unknown job", http.MethodDelete, "/v1/audits/a999", "/v1/audits/n0.a999", 404},
		{"checkpoint of unknown job", http.MethodGet, "/v1/audits/a999/checkpoint", "/v1/audits/n0.a999/checkpoint", 404},
		{"checkpoint of terminal job", http.MethodGet, "/v1/audits/" + done.ID + "/checkpoint", "/v1/audits/n0." + done.ID + "/checkpoint", 409},
		{"checkpoint before first generation", http.MethodGet, "/v1/audits/" + wedged.ID + "/checkpoint", "/v1/audits/n0." + wedged.ID + "/checkpoint", 204},
		{"submit on full queue", http.MethodPost, "/v1/models/clean/audits", "/v1/models/clean/audits", 429},
		{"tenant usage", http.MethodGet, "/v1/tenants/acme/usage", "/v1/tenants/acme/usage", 200},
		{"usage of unknown tenant", http.MethodGet, "/v1/tenants/nobody/usage", "/v1/tenants/nobody/usage", 404},
	})
	if u := fetchEnvelope(t, http.MethodGet, gw.URL+"/v1/tenants/acme/usage", ""); u.Usage.Jobs != 3 || u.Usage.Spent != done.Verdict.Queries {
		t.Errorf("gateway usage %+v, want 3 jobs and %d spent", u.Usage, done.Verdict.Queries)
	}
	if ra := fetchEnvelope(t, http.MethodPost, gw.URL+"/v1/models/clean/audits", key).RetryAfter; ra == "" {
		t.Error("gateway 429 dropped the node's Retry-After")
	}

	// A serving-only node: no detector, no key file.
	bareReg, err := OpenRegistry(env.zoo, RegistryConfig{MaxLoaded: 2})
	if err != nil {
		t.Fatal(err)
	}
	bare := NewRegistryServer(bareReg)
	t.Cleanup(bare.Close)
	bareNode := httptest.NewServer(bare.Handler())
	t.Cleanup(bareNode.Close)
	check(bareNode, front(bareNode), []probe{
		{"submit, audits disabled", http.MethodPost, "/v1/models/clean/audits", "/v1/models/clean/audits", 501},
		{"poll, audits disabled", http.MethodGet, "/v1/audits/a1", "/v1/audits/n0.a1", 501},
		{"cancel, audits disabled", http.MethodDelete, "/v1/audits/a1", "/v1/audits/n0.a1", 501},
		{"checkpoint, audits disabled", http.MethodGet, "/v1/audits/a1/checkpoint", "/v1/audits/n0.a1/checkpoint", 501},
		{"list, audits disabled", http.MethodGet, "/v1/audits", "/v1/audits", 501},
		{"usage, tenancy disabled", http.MethodGet, "/v1/tenants/acme/usage", "/v1/tenants/acme/usage", 501},
	})
}
