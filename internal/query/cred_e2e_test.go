package query_test

// End-to-end credential enforcement over real TCP: the full production
// stack (core.Controller over a credentialed query.Engine over
// query.Pool against real daemon.Server instances) with an authority
// keypair issuing short-lived credentials. The untrusted-daemon
// acceptance scenarios: a forged credential, an expired credential, and
// an out-of-scope key assertion are each rejected, counted distinctly,
// and degraded to exactly the daemon-less fallback (answer-on-behalf /
// no-info) — never into a verdict. Credential expiry acts as a
// revocation event tearing dependent flows down through the revocation
// index, and rotation re-hellos keep a long-lived subscription verified
// with no resync storm.

import (
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/cred"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/sig"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

const credPolicy = `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`

// issueFor signs a credential for h's IP under priv. keys nil = wildcard.
func issueFor(t *testing.T, priv sig.PrivateKey, h *e2eHost, keys []string, ttl time.Duration) *cred.Issued {
	t.Helper()
	ic, err := cred.Issue(priv, h.ip, keys, time.Now().Add(ttl))
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

// credStack builds the credentialed production stack: pool with the
// authority's public key, engine, controller (whose credential half the
// engine switches on) with the revocation plane wired, one real switch.
func credStack(t *testing.T, name string, authority sig.PublicKey, resolver query.StaticResolver) (*query.Pool, *query.Engine, *core.Controller, *openflow.Switch) {
	t.Helper()
	pool := query.NewPool(query.PoolConfig{Resolver: resolver, AuthorityKey: authority})
	t.Cleanup(func() { pool.Close() })
	eng := query.NewEngine(query.Config{Lower: pool})
	t.Cleanup(eng.Close)
	sw := openflow.NewSwitch(1, "edge", 0)
	ctl := core.New(core.Config{
		Name:             name,
		Policy:           pf.MustCompile(name, credPolicy),
		Transport:        eng,
		Topology:         &e2eTopo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
	})
	ctl.AddDatapath(sw)
	if !eng.SetUpdateHandler(ctl.HandleUpdate) {
		t.Fatal("engine lower does not push updates")
	}
	return pool, eng, ctl, sw
}

// skypeFlow registers a live skype connection src→dst and returns it.
func skypeFlow(t *testing.T, src, dst *e2eHost, srcPort netaddr.Port) flow.Five {
	t.Helper()
	connected, err := src.info.Connect(src.proc.PID, flow.Five{
		SrcIP: src.ip, DstIP: dst.ip,
		Proto: netaddr.ProtoTCP, SrcPort: srcPort, DstPort: 5060,
	})
	if err != nil {
		t.Fatal(err)
	}
	return connected
}

// TestE2ECredentialedFlowAllowed: the happy path — both daemons hold
// valid wildcard credentials, the flow is admitted on their word, and no
// fallback machinery fires.
func TestE2ECredentialedFlowAllowed(t *testing.T) {
	authPub, authPriv := sig.MustGenerateKey()
	src := startHost(t, "client", "10.8.0.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.8.0.2", workload.Skype, "bob")
	src.d.SetCredential(issueFor(t, authPriv, src, nil, time.Hour))
	dst.d.SetCredential(issueFor(t, authPriv, dst, nil, time.Hour))

	pool, eng, ctl, sw := credStack(t, "cred-ok", authPub, query.StaticResolver{
		src.ip: src.addr, dst.ip: dst.addr,
	})

	connected := skypeFlow(t, src, dst, 40000)
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 1)
	waitUntil(t, "entries installed", func() bool { return sw.Table.Len() == 2 })
	waitCounter(t, pool.Counters, "pool_cred_verified", 2)

	if n := ctl.Counters.Get("cred_unauthorized"); n != 0 {
		t.Errorf("cred_unauthorized = %d on the happy path", n)
	}
	if n := ctl.Counters.Get("answered_on_behalf"); n != 0 {
		t.Errorf("answered_on_behalf = %d with both daemons credentialed", n)
	}
	st, ok := eng.CredentialStatus(src.ip)
	if !ok || !st.Verified || !st.Wild {
		t.Errorf("src credential status = %+v, %v; want verified wildcard", st, ok)
	}
	if got := pool.VerifiedSessions(); got != 2 {
		t.Errorf("VerifiedSessions = %d, want 2", got)
	}
}

// TestE2EForgedCredentialRejected: a daemon presenting a credential
// signed by a rogue authority is rejected — its answers cannot influence
// any verdict — and the host degrades to exactly the daemon-less
// treatment: no-info (deny under this policy) without an operator
// override, answer-on-behalf with one.
func TestE2EForgedCredentialRejected(t *testing.T) {
	authPub, authPriv := sig.MustGenerateKey()
	_, roguePriv := sig.MustGenerateKey()
	src := startHost(t, "client", "10.8.1.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.8.1.2", workload.Skype, "bob")
	src.d.SetCredential(issueFor(t, roguePriv, src, nil, time.Hour)) // forged: wrong authority
	dst.d.SetCredential(issueFor(t, authPriv, dst, nil, time.Hour))

	pool, eng, ctl, _ := credStack(t, "cred-forged", authPub, query.StaticResolver{
		src.ip: src.addr, dst.ip: dst.addr,
	})

	connected := skypeFlow(t, src, dst, 40001)
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	// The source daemon answers name=skype over the wire — but its session
	// never verifies, so the policy sees no facts for src and block all
	// wins.
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_denied", 1)
	waitCounter(t, pool.Counters, "pool_cred_forged", 1)
	waitCounter(t, ctl.Counters, "cred_unauthorized", 1)
	if n := ctl.Counters.Get("flows_allowed"); n != 0 {
		t.Fatalf("forged daemon influenced a verdict: flows_allowed = %d", n)
	}
	st, ok := eng.CredentialStatus(src.ip)
	if !ok || st.Verified || st.Err != "forged" {
		t.Errorf("src credential status = %+v, %v; want unverified/forged", st, ok)
	}

	// Same fallback as core.IsNoDaemon: with an operator-registered answer
	// for the unauthorized host, the flow passes as answered-on-behalf.
	ctl.AnswerForHost(src.ip, wire.KV{Key: wire.KeyName, Value: "skype"})
	second := skypeFlow(t, src, dst, 40002)
	ctl.HandleEvent(packetIn(second, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 1)
	waitCounter(t, ctl.Counters, "answered_on_behalf", 1)
}

// TestE2EExpiredCredentialRejected: an authority-signed credential past
// its expiry is rejected at hello, counted as expired (not forged), and
// the host degrades to no-info.
func TestE2EExpiredCredentialRejected(t *testing.T) {
	authPub, authPriv := sig.MustGenerateKey()
	src := startHost(t, "client", "10.8.2.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.8.2.2", workload.Skype, "bob")
	src.d.SetCredential(issueFor(t, authPriv, src, nil, -time.Minute)) // already expired
	dst.d.SetCredential(issueFor(t, authPriv, dst, nil, time.Hour))

	pool, eng, ctl, _ := credStack(t, "cred-expired", authPub, query.StaticResolver{
		src.ip: src.addr, dst.ip: dst.addr,
	})

	connected := skypeFlow(t, src, dst, 40003)
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_denied", 1)
	waitCounter(t, pool.Counters, "pool_cred_expired", 1)
	waitCounter(t, ctl.Counters, "cred_unauthorized", 1)
	if n := pool.Counters.Get("pool_cred_forged"); n != 0 {
		t.Errorf("expired credential miscounted as forged (%d)", n)
	}
	if n := ctl.Counters.Get("flows_allowed"); n != 0 {
		t.Fatalf("expired daemon influenced a verdict: flows_allowed = %d", n)
	}
	st, ok := eng.CredentialStatus(src.ip)
	if !ok || st.Verified || st.Err != "expired" {
		t.Errorf("src credential status = %+v, %v; want unverified/expired", st, ok)
	}
}

// TestE2EOutOfScopeAssertionRejected: a verified session whose credential
// scopes it to userID cannot have a name assertion believed — the
// response is rejected per-answer, counted as a scope reject, and the
// verdict falls back to no-info.
func TestE2EOutOfScopeAssertionRejected(t *testing.T) {
	authPub, authPriv := sig.MustGenerateKey()
	src := startHost(t, "client", "10.8.3.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.8.3.2", workload.Skype, "bob")
	// Valid authority, valid expiry — but scoped to a key this policy
	// never reads, so the daemon's name=skype answer exceeds its mandate.
	src.d.SetCredential(issueFor(t, authPriv, src, []string{wire.KeyUserID}, time.Hour))
	dst.d.SetCredential(issueFor(t, authPriv, dst, nil, time.Hour))

	pool, eng, ctl, _ := credStack(t, "cred-scope", authPub, query.StaticResolver{
		src.ip: src.addr, dst.ip: dst.addr,
	})

	connected := skypeFlow(t, src, dst, 40004)
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_denied", 1)
	waitCounter(t, pool.Counters, "pool_cred_scope_rejects", 1)
	waitCounter(t, ctl.Counters, "cred_unauthorized", 1)
	if n := ctl.Counters.Get("flows_allowed"); n != 0 {
		t.Fatalf("out-of-scope assertion influenced a verdict: flows_allowed = %d", n)
	}
	// The session itself verified — the hello was honest — and the scope
	// violation is recorded per-answer for the admin surface.
	st, ok := eng.CredentialStatus(src.ip)
	if !ok || !st.Verified {
		t.Fatalf("src session should stay verified, status = %+v, %v", st, ok)
	}
	if st.Err != "scope" {
		t.Errorf("credential err = %q, want scope", st.Err)
	}
}

// TestE2ECredentialExpiryRevokesFlows: expiry is a revocation event. A
// flow admitted under a short-lived credential is torn down through the
// revocation index the moment the credential lapses, O(affected flows) —
// no sweep cadence, no controller restart.
func TestE2ECredentialExpiryRevokesFlows(t *testing.T) {
	authPub, authPriv := sig.MustGenerateKey()
	src := startHost(t, "client", "10.8.4.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.8.4.2", workload.Skype, "bob")
	// Issue truncates expiry to the second, so a 2s TTL yields 1-2s of
	// real lifetime: enough to set the flow up, short enough to lapse
	// within the test.
	src.d.SetCredential(issueFor(t, authPriv, src, nil, 2*time.Second))
	dst.d.SetCredential(issueFor(t, authPriv, dst, nil, time.Hour))

	pool, _, ctl, sw := credStack(t, "cred-lapse", authPub, query.StaticResolver{
		src.ip: src.addr, dst.ip: dst.addr,
	})

	connected := skypeFlow(t, src, dst, 40005)
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 1)
	waitUntil(t, "entries installed", func() bool { return sw.Table.Len() == 2 })

	// The lapse timer fires at expiry: session drops to unverified, a
	// synthetic resync flows through the revocation index, and the flow's
	// entries leave the switch.
	waitCounter(t, pool.Counters, "pool_cred_lapsed", 1)
	waitCounter(t, ctl.Counters, "revocations_flows", 1)
	waitUntil(t, "entries torn down at credential expiry", func() bool {
		return sw.Table.Len() == 0
	})
	if n := cachedVerdicts(ctl); n != 0 {
		t.Errorf("cache entries = %d after credential lapse", n)
	}
	waitUntil(t, "audit record", func() bool {
		revs := ctl.Audit.Revocations()
		return len(revs) >= 1 && revs[0].Flow == connected
	})
}

// TestE2ERotationSurvivesWithoutResync: the rotation regression — a
// long-lived subscription rides through two credential rotations
// (SetCredential re-hellos at the current serial) with the session
// continuously verified and zero resyncs, so rotation causes no flow
// churn and no teardown storm.
func TestE2ERotationSurvivesWithoutResync(t *testing.T) {
	authPub, authPriv := sig.MustGenerateKey()
	src := startHost(t, "client", "10.8.5.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.8.5.2", workload.Skype, "bob")
	src.d.SetCredential(issueFor(t, authPriv, src, nil, time.Hour))
	dst.d.SetCredential(issueFor(t, authPriv, dst, nil, time.Hour))

	pool, eng, ctl, sw := credStack(t, "cred-rotate", authPub, query.StaticResolver{
		src.ip: src.addr, dst.ip: dst.addr,
	})

	connected := skypeFlow(t, src, dst, 40006)
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 1)
	waitUntil(t, "entries installed", func() bool { return sw.Table.Len() == 2 })
	waitCounter(t, pool.Counters, "pool_cred_verified", 2)

	// Two rotations, each a fresh credential re-helloed over the live
	// subscription: daemon_rehellos counts the deliveries, the pool
	// re-verifies each time.
	for i := 0; i < 2; i++ {
		src.d.SetCredential(issueFor(t, authPriv, src, nil, time.Hour))
		waitCounter(t, pool.Counters, "pool_cred_verified", int64(3+i))
	}
	waitCounter(t, src.d.Counters, "daemon_rehellos", 2)

	if n := pool.Counters.Get("pool_update_resyncs"); n != 0 {
		t.Fatalf("rotation caused %d resyncs; want 0", n)
	}
	if n := ctl.Counters.Get("revocations_resyncs"); n != 0 {
		t.Fatalf("rotation caused %d controller resyncs; want 0", n)
	}
	if n := ctl.Counters.Get("revocations_flows"); n != 0 {
		t.Fatalf("rotation revoked %d flows; want 0", n)
	}
	if sw.Table.Len() != 2 {
		t.Fatalf("entries = %d after rotations; want 2 (no churn)", sw.Table.Len())
	}
	st, ok := eng.CredentialStatus(src.ip)
	if !ok || !st.Verified {
		t.Fatalf("session unverified after rotation: %+v, %v", st, ok)
	}

	// And the rotated session still admits fresh flows.
	second := skypeFlow(t, src, dst, 40007)
	ctl.HandleEvent(packetIn(second, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 2)
	if n := ctl.Counters.Get("answered_on_behalf"); n != 0 {
		t.Errorf("rotated session fell back to answer-on-behalf (%d)", n)
	}
}

// TestCredentialedStandingAllocatesNothing: the controller asks a host's
// standing as each answer is taken in, as its verdict is leased and before
// a held answer serves it — up to six times in a credentialed decision — so
// on a verified session under a scoped credential the check copies
// nothing: not the key scope, not a status.
func TestCredentialedStandingAllocatesNothing(t *testing.T) {
	authPub, authPriv := sig.MustGenerateKey()
	src := startHost(t, "client", "10.8.6.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.8.6.2", workload.Skype, "bob")
	scope := []string{wire.KeyName, wire.KeyUserID, wire.KeyGroupID}
	src.d.SetCredential(issueFor(t, authPriv, src, scope, time.Hour))
	dst.d.SetCredential(issueFor(t, authPriv, dst, scope, time.Hour))

	pool, eng, ctl, _ := credStack(t, "cred-standing", authPub, query.StaticResolver{
		src.ip: src.addr, dst.ip: dst.addr,
	})
	connected := skypeFlow(t, src, dst, 40008)
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, pool.Counters, "pool_cred_verified", 2)

	st := eng.Standing(src.ip)
	if !st.Authorized || !st.Streaming || st.Expiry.IsZero() {
		t.Fatalf("src standing = %+v, want an authorized, streaming session with an expiry", st)
	}
	if cs, _ := eng.CredentialStatus(src.ip); cs.Wild || len(cs.Scope) != len(scope) {
		t.Fatalf("src credential status = %+v, want the %d-key scope", cs, len(scope))
	}
	for name, standing := range map[string]func(netaddr.IP) core.Standing{"engine": eng.Standing, "pool": pool.Standing} {
		if n := testing.AllocsPerRun(1000, func() { st = standing(src.ip) }); n != 0 {
			t.Errorf("%s standing of a scoped credential allocates %.1f per call, want 0", name, n)
		}
	}
}
