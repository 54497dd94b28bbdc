package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// These tests drive the operator views one runbook step of
// docs/operations.md at a time, through the mux identctl serves.

var (
	hostA = netaddr.MustParseIP("10.0.0.1")
	hostB = netaddr.MustParseIP("10.0.0.2")
)

func operatorHandler(op Operator) http.Handler {
	s := NewServer()
	RegisterController(s.Registry, op.Ctl)
	if op.Rt != nil {
		RegisterRouter(s.Registry, op.Rt)
	}
	s.MountOperator(op)
	return s.mux
}

// do serves one request from peer and decodes a 200 answer into out.
func do(t *testing.T, h http.Handler, method, target, peer string, out any) int {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	req.RemoteAddr = peer
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code == http.StatusOK && out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: %v in %s", method, target, err, w.Body)
		}
	}
	return w.Code
}

const loopback = "127.0.0.1:40000"

// scrape reads one unlabelled series from /metrics.
func scrape(t *testing.T, h http.Handler, name string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return ""
}

// Runbook "revoking access", step 1: revoke one host's flows, by key and
// whole, and watch the class record go on /metrics.
func TestOperatorRevokeByHostAndKey(t *testing.T) {
	ctl := newTestController(t)
	driveFlow(ctl, 40000)
	h := operatorHandler(Operator{Ctl: ctl})
	if got := scrape(t, h, "identxx_revocation_wide_live"); got != "1" {
		t.Fatalf("class records live = %s, want the cached verdict's 1", got)
	}
	for _, step := range []struct {
		target string
		want   int
	}{
		{"/revoke?host=10.0.0.1&key=userID", 0}, // the verdict never read userID
		{"/revoke?host=10.0.0.1&key=name", 1},
		{"/revoke?host=10.0.0.1", 0},
	} {
		var torn Torn
		if code := do(t, h, http.MethodPost, step.target, loopback, &torn); code != http.StatusOK || torn.Flows != step.want {
			t.Errorf("POST %s = %d %+v, want %d flow(s)", step.target, code, torn, step.want)
		}
	}
	if got := scrape(t, h, "identxx_revocation_wide_live"); got != "0" {
		t.Errorf("class records live after the revoke = %s, want 0", got)
	}
	for _, bad := range []string{"/revoke", "/revoke?host=bogus"} {
		if code := do(t, h, http.MethodPost, bad, loopback, nil); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", bad, code)
		}
	}
}

// Runbook "revoking access", step 3: force a lease sweep.
func TestOperatorSweep(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	ctl := core.New(core.Config{
		Name:               "sweep",
		Policy:             pf.MustCompile("p", "block all\npass from any to any with eq(@src[name], skype)"),
		Transport:          okTransport{},
		Topology:           lineTopo{},
		RevocationLeaseTTL: time.Minute,
		Clock:              func() time.Time { mu.Lock(); defer mu.Unlock(); return now },
	})
	ctl.AddDatapath(&nullDatapath{id: 1})
	driveFlow(ctl, 40000)
	h := operatorHandler(Operator{Ctl: ctl})
	var torn Torn
	if code := do(t, h, http.MethodPost, "/sweep", loopback, &torn); code != http.StatusOK || torn.Flows != 0 {
		t.Errorf("sweep before expiry = %d %+v, want 0 flows", code, torn)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if code := do(t, h, http.MethodPost, "/sweep", loopback, &torn); code != http.StatusOK || torn.Flows != 1 {
		t.Errorf("sweep after expiry = %d %+v, want 1 flow", code, torn)
	}
	if got := scrape(t, h, "identxx_revocations_lease_expired_total"); got != "1" {
		t.Errorf("lease_expired = %s, want 1", got)
	}
}

// credLower is a query lower with a credential face: the sessions it
// reports are the ones the test declares.
type credLower struct {
	okTransport
	sessions map[netaddr.IP]query.CredStatus
}

func (l credLower) Standing(h netaddr.IP) core.Standing {
	st := core.Standing{Authorized: l.sessions[h].Verified, Streaming: true}
	if st.Authorized {
		st.Expiry = l.sessions[h].Expiry
	}
	return st
}
func (l credLower) CredentialStatus(h netaddr.IP) (query.CredStatus, bool) {
	return l.sessions[h], true
}
func (l credLower) CredentialSessions() []query.HostCredStatus {
	var out []query.HostCredStatus
	for h, st := range l.sessions {
		out = append(out, query.HostCredStatus{Host: h, CredStatus: st})
	}
	return out
}

// Runbooks "revoking access" step 3 and "credential issuance": hosts shows
// which hosts push, what rests on each, and each one's credential session.
func TestOperatorHosts(t *testing.T) {
	forged := netaddr.MustParseIP("10.0.0.9")
	exp := time.Unix(2000000000, 0).UTC()
	for _, credentialed := range []bool{false, true} {
		var lower query.Lower = okTransport{}
		if credentialed {
			lower = credLower{sessions: map[netaddr.IP]query.CredStatus{
				hostA:  {Present: true, Verified: true, Scope: []string{"name"}, Expiry: exp},
				forged: {Present: true, Err: "forged"},
			}}
		}
		eng := query.NewEngine(query.Config{Lower: lower})
		defer eng.Close()
		ctl := core.New(core.Config{
			Name:             "hosts",
			Policy:           pf.MustCompile("p", "block all\npass from any to any with eq(@src[name], skype)"),
			Transport:        eng,
			Topology:         lineTopo{},
			ResponseCacheTTL: time.Hour,
		})
		ctl.AddDatapath(&nullDatapath{id: 1})
		ctl.HandleUpdate(hostA, wire.Update{Hello: true, Serial: 1})
		driveFlow(ctl, 40000)
		h := operatorHandler(Operator{Ctl: ctl, Eng: eng})

		var rows []HostRow
		if code := do(t, h, http.MethodGet, "/hosts", "192.0.2.1:1", &rows); code != http.StatusOK {
			t.Fatalf("credentialed=%t: GET /hosts = %d", credentialed, code)
		}
		byHost := make(map[netaddr.IP]HostRow)
		for _, r := range rows {
			byHost[r.Host] = r
		}
		a, b := byHost[hostA], byHost[hostB]
		if !a.Push || a.Classes != 1 || a.Queries != 1 || b.Push || b.Queries != 1 {
			t.Errorf("credentialed=%t: hosts = %+v, want A pushing with one class, both queried once", credentialed, rows)
		}
		if !credentialed {
			if len(rows) != 2 || a.Cred != nil || b.Cred != nil {
				t.Errorf("insecure hosts = %+v, want A and B with no cred", rows)
			}
			continue
		}
		if len(rows) != 3 {
			t.Errorf("hosts = %+v, want A, B and the forged session's host", rows)
		}
		if a.Cred == nil || !a.Cred.Verified || !a.Cred.Expiry.Equal(exp) || len(a.Cred.Scope) != 1 {
			t.Errorf("A's cred = %+v, want the verified session", a.Cred)
		}
		if b.Cred == nil || b.Cred.Present {
			t.Errorf("B's cred = %+v, want present=false (no hello)", b.Cred)
		}
		if f := byHost[forged]; f.Cred == nil || f.Cred.Verified || f.Cred.Err != "forged" {
			t.Errorf("forged host's cred = %+v, want err=forged", f.Cred)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/hosts", nil))
		if !strings.Contains(w.Body.String(), `"Host": "10.0.0.1"`) {
			t.Errorf("hosts renders addresses as integers:\n%s", w.Body)
		}
	}
}

// Audit-stream and revocation-storm steps: rules names the deciding rule,
// shards shows where decisions are pending.
func TestOperatorRulesAndShards(t *testing.T) {
	ctl := newTestController(t)
	driveFlow(ctl, 40000)
	h := operatorHandler(Operator{Ctl: ctl})
	var rules []core.RuleCount
	if code := do(t, h, http.MethodGet, "/rules", loopback, &rules); code != http.StatusOK ||
		len(rules) != 1 || rules[0].Total != 1 || rules[0].Denied != 0 || !strings.Contains(rules[0].Rule, "skype") {
		t.Errorf("GET /rules = %d %+v, want the skype rule once", code, rules)
	}
	var shards []core.ShardStat
	if code := do(t, h, http.MethodGet, "/shards", loopback, &shards); code != http.StatusOK || len(shards) != ctl.Shards() {
		t.Errorf("GET /shards = %d, %d shards, want %d", code, len(shards), ctl.Shards())
	}
	for i, s := range shards {
		if s.Pending != 0 || s.Waiters != 0 {
			t.Errorf("shard %d = %+v, want idle", i, s)
		}
	}
}

// Runbook "replica failover", steps 1–3: ring shows the members, a drop
// deletes the dropped replica's entries by its tag and leaves ours.
func TestOperatorRingDrop(t *testing.T) {
	sw := openflow.NewSwitch(1, "s1", 0)
	newReplica := func(name string) *core.Controller {
		c := core.New(core.Config{
			Name:      name,
			Policy:    pf.MustCompile("p", "pass all"),
			Transport: okTransport{},
			Topology:  lineTopo{},
		})
		c.AddDatapath(sw)
		return c
	}
	a, b := newReplica("a"), newReplica("b")
	b.HandleEvent(packetFrom(hostB))
	rt := cluster.NewRouter(a, cluster.Member{ID: "a", Addr: "127.0.0.1:1"}, cluster.Options{})
	defer rt.Close()
	if err := rt.SetMembers([]cluster.Member{{ID: "a", Addr: "127.0.0.1:1"}, {ID: "b", Addr: "127.0.0.1:2"}}); err != nil {
		t.Fatal(err)
	}
	a.HandleEvent(packetFrom(hostA))
	h := operatorHandler(Operator{Ctl: a, Rt: rt})

	var ring Ring
	if code := do(t, h, http.MethodGet, "/ring", loopback, &ring); code != http.StatusOK || len(ring.Replicas) != 2 {
		t.Fatalf("GET /ring = %d %+v, want two replicas", code, ring)
	}
	for _, r := range ring.Replicas {
		if r.Self != (r.Member.ID == "a") || r.Share <= 0 {
			t.Errorf("replica %+v: want a as self and a share each", r)
		}
	}
	before := len(sw.Table.Entries())
	if code := do(t, h, http.MethodPost, "/ring/drop?id=b", loopback, &ring); code != http.StatusOK ||
		len(ring.Replicas) != 1 || ring.Replicas[0].Share != 1 {
		t.Errorf("POST /ring/drop = %d %+v, want a alone with the whole share", code, ring)
	}
	if got := scrape(t, h, "identxx_cluster_takeover_swept_total"); got != "1" {
		t.Errorf("takeover deletes = %s, want one for the one switch", got)
	}
	if after := len(sw.Table.Entries()); after == 0 || after >= before {
		t.Errorf("entries %d -> %d: want b's gone and a's kept", before, after)
	}
	if code := do(t, h, http.MethodPost, "/ring/drop", loopback, nil); code != http.StatusBadRequest {
		t.Errorf("POST /ring/drop without an id = %d, want 400", code)
	}
	if code := do(t, operatorHandler(Operator{Ctl: a}), http.MethodGet, "/ring", loopback, nil); code != http.StatusNotFound {
		t.Errorf("GET /ring unclustered = %d, want 404", code)
	}
}

func packetFrom(src netaddr.IP) openflow.PacketIn {
	ev := openflow.PacketIn{SwitchID: 1, BufferID: openflow.BufferNone, InPort: 1}
	ev.Tuple.EthType = flow.EthTypeIPv4
	ev.Tuple.SrcIP, ev.Tuple.DstIP, ev.Tuple.Proto = src, netaddr.MustParseIP("10.0.0.3"), netaddr.ProtoTCP
	ev.Tuple.SrcPort, ev.Tuple.DstPort = 40000, 80
	return ev
}

// Runbook "chasing a slow decision": the slow captures, then one trace by
// its ID, on /trace.
func TestOperatorTraceSlowAndByID(t *testing.T) {
	rec := trace.New(trace.Config{SlowThreshold: time.Nanosecond})
	ctl := core.New(core.Config{
		Name:      "traced",
		Policy:    pf.MustCompile("p", "block all\npass from any to any with eq(@src[name], skype)"),
		Transport: okTransport{},
		Topology:  lineTopo{},
		Trace:     rec,
	})
	ctl.AddDatapath(&nullDatapath{id: 1})
	driveFlow(ctl, 40000)
	s := NewServer()
	s.MountTrace(rec)
	get := func(target string) (int, []map[string]any) {
		w := httptest.NewRecorder()
		s.mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		var out []map[string]any
		for _, line := range bytes.Split(bytes.TrimSpace(w.Body.Bytes()), []byte("\n")) {
			var tr map[string]any
			if json.Unmarshal(line, &tr) == nil {
				out = append(out, tr)
			}
		}
		return w.Code, out
	}
	code, slow := get("/trace?slow=1")
	if code != http.StatusOK || len(slow) != 1 || slow[0]["slow"] != true {
		t.Fatalf("GET /trace?slow=1 = %d %v, want the one slow capture", code, slow)
	}
	id := fmt.Sprint(slow[0]["id"])
	if code, byID := get("/trace?id=" + id); code != http.StatusOK || len(byID) != 1 || byID[0]["id"] != slow[0]["id"] {
		t.Errorf("GET /trace?id=%s = %d %v, want that trace", id, code, byID)
	}
	if code, _ := get("/trace?id=zz"); code != http.StatusBadRequest {
		t.Errorf("GET /trace?id=zz = %d, want 400", code)
	}
}

// A mutation from a peer that is not loopback is refused before it runs.
func TestOperatorMutationsNeedLoopback(t *testing.T) {
	ctl := newTestController(t)
	driveFlow(ctl, 40000)
	h := operatorHandler(Operator{Ctl: ctl})
	for _, peer := range []string{"192.0.2.1:1234", "10.0.0.7:5", "[2001:db8::1]:80", "garbage"} {
		for _, target := range []string{"/revoke?host=10.0.0.1", "/sweep", "/ring/drop?id=b"} {
			if code := do(t, h, http.MethodPost, target, peer, nil); code != http.StatusForbidden {
				t.Errorf("POST %s from %s = %d, want 403", target, peer, code)
			}
		}
	}
	if live, _, _ := ctl.ClassRecordStats(); live != 1 {
		t.Fatalf("a refused revoke tore down: %d class records live, want 1", live)
	}
	var torn Torn
	if code := do(t, h, http.MethodPost, "/revoke?host=10.0.0.1", "[::1]:1234", &torn); code != http.StatusOK || torn.Flows != 1 {
		t.Errorf("POST /revoke from [::1] = %d %+v, want 1 flow", code, torn)
	}
}

// A mutation asked with GET is refused, and a view asked with POST.
func TestOperatorMethodsAreEnforced(t *testing.T) {
	ctl := newTestController(t)
	driveFlow(ctl, 40000)
	h := operatorHandler(Operator{Ctl: ctl})
	for _, target := range []string{"/revoke?host=10.0.0.1", "/sweep", "/ring/drop?id=b"} {
		if code := do(t, h, http.MethodGet, target, loopback, nil); code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", target, code)
		}
	}
	if live, _, _ := ctl.ClassRecordStats(); live != 1 {
		t.Errorf("a GET tore down: %d class records live, want 1", live)
	}
	if code := do(t, h, http.MethodPost, "/hosts", loopback, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /hosts = %d, want 405", code)
	}
}

// Request maps an operator's words onto the declared views.
func TestRequestMapsWords(t *testing.T) {
	for _, c := range []struct {
		words        []string
		method, want string
	}{
		{[]string{"hosts"}, "GET", "http://h:1/hosts"},
		{[]string{"ring"}, "GET", "http://h:1/ring"},
		{[]string{"ring", "drop", "b"}, "POST", "http://h:1/ring/drop?id=b"},
		{[]string{"revoke", "10.0.0.1"}, "POST", "http://h:1/revoke?host=10.0.0.1"},
		{[]string{"revoke", "10.0.0.1", "name"}, "POST", "http://h:1/revoke?host=10.0.0.1&key=name"},
		{[]string{"sweep"}, "POST", "http://h:1/sweep"},
	} {
		req, err := Request("h:1", c.words)
		if err != nil || req.Method != c.method || req.URL.String() != c.want {
			t.Errorf("Request(%q) = %v %v, want %s %s", c.words, req, err, c.method, c.want)
		}
	}
	for _, bad := range [][]string{nil, {"frobnicate"}, {"ring", "bogus"}, {"revoke", "1.2.3.4", "k", "extra"}, {"sweep", "now"}} {
		if _, err := Request("h:1", bad); err == nil {
			t.Errorf("Request(%q) succeeded", bad)
		}
	}
}
