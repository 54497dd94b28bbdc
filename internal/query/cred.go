package query

import (
	"errors"
	"time"

	"identxx/internal/cred"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// This file is the pool's half of the credential plane (internal/cred).
// When PoolConfig.AuthorityKey is set, every per-host session must prove
// itself in its hello: the daemon's credential is checked against the
// authority (forged / expired / wrong host, each counted separately) and
// the hello transcript signature proves possession of the credential's
// session key at this session's serial baseline. All crypto happens here,
// once per session — afterwards serial continuity on the same TCP stream
// is the proof, so the steady-state query path pays a mutex-protected
// flag read and a linear scope scan, no allocations and no signatures.
//
// An unverified session is indistinguishable from a daemon-less host to
// the layers above: responses fail with an error satisfying
// core.IsNoDaemon, so the controller falls back to answer-on-behalf or
// no-info exactly as it does today for hosts that refuse the connection.
// Updates from unverified sessions are dropped entirely — an
// unauthenticated peer must not even tear state down, or a forger could
// flush the controller's view of a host at will.

// ErrUnauthorized marks responses rejected by the credential plane —
// session never verified, credential expired mid-session, or a response
// asserting keys outside the credential's scope. It satisfies
// core.IsNoDaemon: an unauthorized daemon and an absent daemon get the
// same fallback treatment.
var ErrUnauthorized = errors.New("query: daemon unauthorized")

// unauthorizedError gives each rejection a reason while matching both
// errors.Is(err, ErrUnauthorized) and core.IsNoDaemon.
type unauthorizedError struct{ reason string }

func (e *unauthorizedError) Error() string      { return "query: daemon unauthorized: " + e.reason }
func (e *unauthorizedError) NoDaemon() bool     { return true }
func (e *unauthorizedError) Unauthorized() bool { return true }
func (e *unauthorizedError) Unwrap() error      { return ErrUnauthorized }

// Preallocated rejections: the unauthorized path must not allocate per
// query either, or a rejected daemon could pressure the collector.
var (
	errSessionUnverified = &unauthorizedError{reason: "session not credential-verified"}
	errSessionExpired    = &unauthorizedError{reason: "credential expired"}
	errOutOfScope        = &unauthorizedError{reason: "response outside credential key scope"}
)

// Credential verification verdicts, also surfaced as CredStatus.Err.
const (
	credOK      = ""
	credMissing = "missing" // hello carried no credential
	credForged  = "forged"  // malformed blob, bad authority signature, or bad hello transcript
	credExpired = "expired" // authority-signed but past expiry
	credScope   = "scope"   // issued for a different host, or response exceeded key scope
)

// credState is one session's verification state, guarded by hostConn.mu.
// It survives reconnects as last-known status for operators; verified is
// cleared on teardown because trust is per-session.
type credState struct {
	present  bool        // a hello on the current/last session carried a credential
	verified bool        // current session's hello checked out and has not lapsed
	wild     bool        // scope covers every key
	keys     []string    // sorted key scope when !wild
	expiry   time.Time   // verified credential's expiry
	err      string      // last verification failure ("" when verified)
	lapse    *time.Timer // fires at expiry: expiry-as-revocation
}

// CredStatus is one host's credential status as surfaced to the engine
// and the telemetry operator views.
type CredStatus struct {
	Present  bool      // the daemon presented a credential at all
	Verified bool      // the live session is credential-verified
	Wild     bool      // scope is every key
	Scope    []string  // sorted key scope when !Wild
	Expiry   time.Time // expiry of the last verified credential
	Err      string    // last verification failure reason ("" if none)
}

// credentialed reports whether the pool enforces credentials; false is
// the insecure mode netsim and experiments run in.
func (p *Pool) credentialed() bool { return !p.authority.IsZero() }

// Credentialed reports whether this pool enforces credentials — what turns
// the controller's half of the credential plane on (core.CredentialChecker).
func (p *Pool) Credentialed() bool { return p.credentialed() }

// CredentialStatus returns host's credential status. ok is false when the
// pool runs insecure or has never talked to host.
func (p *Pool) CredentialStatus(host netaddr.IP) (CredStatus, bool) {
	if !p.credentialed() {
		return CredStatus{}, false
	}
	p.mu.Lock()
	hc := p.hosts[host]
	p.mu.Unlock()
	if hc == nil {
		return CredStatus{}, false
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	st := CredStatus{
		Present:  hc.cred.present,
		Verified: hc.cred.verified && time.Now().Before(hc.cred.expiry),
		Wild:     hc.cred.wild,
		Expiry:   hc.cred.expiry,
		Err:      hc.cred.err,
	}
	if len(hc.cred.keys) > 0 {
		st.Scope = append(st.Scope, hc.cred.keys...)
	}
	return st, true
}

// HostAuthorized reports whether facts from host may influence verdicts
// right now. Insecure pools authorize everyone; credentialed pools
// authorize only live verified unexpired sessions.
func (p *Pool) HostAuthorized(host netaddr.IP) bool {
	if !p.credentialed() {
		return true
	}
	st, ok := p.CredentialStatus(host)
	return ok && st.Verified
}

// CredentialExpiry returns the expiry of host's verified credential; ok
// is false for insecure pools and unverified sessions. The controller
// clamps revocation leases to this, making expiry a revocation event even
// for facts cached past the session's death.
func (p *Pool) CredentialExpiry(host netaddr.IP) (time.Time, bool) {
	st, ok := p.CredentialStatus(host)
	if !ok || !st.Verified {
		return time.Time{}, false
	}
	return st.Expiry, true
}

// HostCredStatus pairs a host with its credential status for drill-downs.
type HostCredStatus struct {
	Host netaddr.IP
	CredStatus
}

// CredentialSessions lists every known host's credential status (nil on
// insecure pools) — the credential half of the `/hosts` operator view.
func (p *Pool) CredentialSessions() []HostCredStatus {
	if !p.credentialed() {
		return nil
	}
	p.mu.Lock()
	hosts := make([]netaddr.IP, 0, len(p.hosts))
	for ip := range p.hosts {
		hosts = append(hosts, ip)
	}
	p.mu.Unlock()
	out := make([]HostCredStatus, 0, len(hosts))
	for _, ip := range hosts {
		if st, ok := p.CredentialStatus(ip); ok {
			out = append(out, HostCredStatus{Host: ip, CredStatus: st})
		}
	}
	return out
}

// VerifiedSessions counts hosts with a live verified session — the
// pool_creds_verified gauge.
func (p *Pool) VerifiedSessions() int64 {
	var n int64
	for _, st := range p.CredentialSessions() {
		if st.Verified {
			n++
		}
	}
	return n
}

// verifyHello checks a hello's credential and transcript and installs the
// session's verification state. It returns whether to emit a synthetic
// resync (a previously trusted session just became untrusted: everything
// admitted on its word must go) and whether to suppress the hello itself
// (an unverified peer must not be marked push-capable). Runs on the
// reader goroutine; this is the session's one signature-verification
// moment.
func (hc *hostConn) verifyHello(u wire.Update) (credResync, suppress bool) {
	p := hc.pool
	now := time.Now()
	verdict := credOK
	var c cred.Credential
	if u.Cred == "" {
		verdict = credMissing
	} else if parsed, err := cred.Parse(u.Cred); err != nil {
		verdict = credForged
	} else {
		c = parsed
		switch err := c.Verify(p.authority, now); {
		case errors.Is(err, cred.ErrExpired):
			verdict = credExpired
		case err != nil:
			verdict = credForged
		case c.Host != hc.host:
			// Valid credential, wrong host: a delegated daemon trying to
			// speak for someone else.
			verdict = credScope
		case c.VerifyHello(hc.host, u.Serial, u.CredSig) != nil:
			// No proof of possession: a replayed credential blob.
			verdict = credForged
		}
	}

	hc.mu.Lock()
	wasVerified := hc.cred.verified
	hc.cred.present = u.Cred != ""
	hc.cred.err = verdict
	if verdict == credOK {
		hc.cred.verified = true
		hc.cred.wild, hc.cred.keys = c.Wild, c.Keys
		hc.cred.expiry = c.Expiry
		hc.armLapseLocked(c.Expiry.Sub(now))
		hc.mu.Unlock()
		p.Counters.Add("pool_cred_verified", 1)
		return false, false
	}
	hc.cred.verified = false
	hc.stopLapseLocked()
	hc.mu.Unlock()
	switch verdict {
	case credMissing:
		p.Counters.Add("pool_cred_missing", 1)
	case credForged:
		p.Counters.Add("pool_cred_forged", 1)
	case credExpired:
		p.Counters.Add("pool_cred_expired", 1)
	case credScope:
		p.Counters.Add("pool_cred_scope_rejects", 1)
	}
	return wasVerified, true
}

// filterUpdate applies the session's credential state to a non-hello
// update: drop everything from unverified sessions, and drop key-named
// updates outside the verified scope. Resync and flow-scoped teardowns
// from a *verified* session always pass — they can only remove state.
func (hc *hostConn) filterUpdate(u wire.Update) (suppress bool) {
	hc.mu.Lock()
	verified := hc.cred.verified
	inScope := u.Key == "" || u.Key == wire.KeyError || hc.cred.wild || credCovers(hc.cred.keys, u.Key)
	hc.mu.Unlock()
	if !verified {
		return true
	}
	if !inScope {
		hc.pool.Counters.Add("pool_cred_scope_rejects", 1)
		return true
	}
	return false
}

// authorizeResponse gates one response delivery on the session's
// credential. Zero allocations on the accept path: flag reads plus a
// linear scan of the response's pairs against a handful of scope keys.
func (hc *hostConn) authorizeResponse(resp *wire.Response) error {
	hc.mu.Lock()
	verified := hc.cred.verified
	wild := hc.cred.wild
	keys := hc.cred.keys
	expiry := hc.cred.expiry
	hc.mu.Unlock()
	if !verified {
		hc.pool.Counters.Add("pool_cred_rejected_responses", 1)
		return errSessionUnverified
	}
	if !time.Now().Before(expiry) {
		// The lapse timer will transition the session and resync; reject
		// this response without waiting for it to fire.
		hc.pool.Counters.Add("pool_cred_rejected_responses", 1)
		return errSessionExpired
	}
	if wild {
		return nil
	}
	for si := range resp.Sections {
		for _, kv := range resp.Sections[si].Pairs {
			// error pairs assert no fact — "I don't know" is always in
			// scope and can only lead to a no-info verdict.
			if kv.Key == wire.KeyError {
				continue
			}
			if !credCovers(keys, kv.Key) {
				hc.setCredErr(credScope)
				hc.pool.Counters.Add("pool_cred_scope_rejects", 1)
				hc.pool.Counters.Add("pool_cred_rejected_responses", 1)
				return errOutOfScope
			}
		}
	}
	return nil
}

func credCovers(keys []string, key string) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// setCredErr records a verification failure reason without changing the
// session's verified bit (a scope-violating response is rejected on its
// own; the session's other answers remain individually checked).
func (hc *hostConn) setCredErr(reason string) {
	hc.mu.Lock()
	hc.cred.err = reason
	hc.mu.Unlock()
}

// armLapseLocked (re)arms the expiry timer: when the verified
// credential's lifetime runs out without a rotation re-hello, the session
// lapses and dependent flows are torn down. hc.mu held.
func (hc *hostConn) armLapseLocked(d time.Duration) {
	if hc.cred.lapse != nil {
		hc.cred.lapse.Stop()
	}
	hc.cred.lapse = time.AfterFunc(d, hc.credLapse)
}

// stopLapseLocked cancels the expiry timer. hc.mu held.
func (hc *hostConn) stopLapseLocked() {
	if hc.cred.lapse != nil {
		hc.cred.lapse.Stop()
		hc.cred.lapse = nil
	}
}

// credLapse fires at credential expiry: the paper-side contract is that
// expiry IS a revocation event, so the session drops to unverified and a
// synthetic resync tears down every dependent flow through the
// controller's revocation index, O(affected flows). A rotation re-hello
// before expiry re-arms the timer instead (see Daemon.SetCredential).
func (hc *hostConn) credLapse() {
	hc.mu.Lock()
	if !hc.cred.verified || time.Now().Before(hc.cred.expiry) {
		hc.mu.Unlock()
		return
	}
	hc.cred.verified = false
	hc.cred.err = credExpired
	serial := hc.lastSerial
	hc.mu.Unlock()
	hc.pool.Counters.Add("pool_cred_lapsed", 1)
	if fn := hc.pool.updateFn(); fn != nil {
		fn(hc.host, wire.Update{Serial: serial})
	}
}
