// Package baseline implements the comparison points the paper argues
// against (§5, §6), sharing the enforcement substrate so differences are
// attributable to information, not implementation:
//
//   - Vanilla firewall: the same controller and switches, but no ident++ —
//     policy sees only the 5-tuple (NullTransport). This is "a network
//     protected by vanilla firewalls" in §5's comparisons.
//   - Ethane-style controller: policy sees user/group bindings the network
//     learned at authentication time, but no application-level information
//     (§6: Ethane "forces the administrator to make security decisions
//     based on the source and destination's physical switch ports and
//     network primitives, and not on any application-level information").
//   - Distributed firewall: enforcement at the receiving end-host (§6,
//     Ioannidis et al.); the network forwards everything, and a compromised
//     end-host has no protection at all.
package baseline

import (
	"strings"
	"sync"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// NullTransport answers no queries: composing it with the ident++
// controller yields a vanilla firewall — identical enforcement, zero
// end-host information.
type NullTransport struct{}

// QueryAsync implements core.QueryTransport by never answering, inline. It
// reports a zero RTT: a vanilla firewall spends nothing gathering
// information.
func (NullTransport) QueryAsync(_ netaddr.IP, _ wire.Query, done func(*wire.Response, time.Duration, error)) {
	done(nil, 0, errNoDaemon)
}

// errNoDaemon mirrors core.ErrNoDaemon without importing core (baseline is
// imported by core's tests). The controller classifies errors now — only
// the daemon-less case may be answered on behalf of — so nullErr declares
// itself via the NoDaemon marker method core.IsNoDaemon looks for.
var errNoDaemon = nullErr{}

type nullErr struct{}

func (nullErr) Error() string { return "baseline: vanilla firewall performs no queries" }

// NoDaemon marks the error as the daemon-less case for core.IsNoDaemon.
func (nullErr) NoDaemon() bool { return true }

// Binding is Ethane's authentication-time knowledge about a host: which
// user is logged in and their groups. Ethane knows who and where, but not
// which application is speaking.
type Binding struct {
	User   string
	Groups []string
}

// EthaneTransport synthesizes ident++-shaped responses from a binding
// table, so the same PF+=2 policies run with exactly the information an
// Ethane controller would have: userID and groupID, never name/exe-hash/
// version/requirements.
type EthaneTransport struct {
	mu       sync.RWMutex
	bindings map[netaddr.IP]Binding
}

// NewEthaneTransport creates an empty binding table.
func NewEthaneTransport() *EthaneTransport {
	return &EthaneTransport{bindings: make(map[netaddr.IP]Binding)}
}

// Bind records the user authenticated on a host.
func (t *EthaneTransport) Bind(ip netaddr.IP, user string, groups ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bindings[ip] = Binding{User: user, Groups: groups}
}

// QueryAsync implements core.QueryTransport from the binding table, which
// is local: it completes inline, and the lookup's round trip is zero.
func (t *EthaneTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	t.mu.RLock()
	b, ok := t.bindings[host]
	t.mu.RUnlock()
	if !ok {
		done(nil, 0, errNoDaemon)
		return
	}
	r := wire.NewResponse(q.Flow)
	r.Add(wire.KeyUserID, b.User)
	if len(b.Groups) > 0 {
		r.Add(wire.KeyGroupID, strings.Join(b.Groups, " "))
	}
	done(r, 0, nil)
}

// HostFirewall is the distributed-firewalls baseline: each host filters its
// own inbound traffic with a local policy; there is no network enforcement.
// A compromised host simply stops filtering (§6: "a compromised end-host
// effectively has no protection. The central administrator's policies are
// completely bypassed").
type HostFirewall struct {
	mu          sync.RWMutex
	policy      *pf.Policy
	compromised bool

	Allowed int64
	Denied  int64
}

// NewHostFirewall creates a host firewall enforcing policy.
func NewHostFirewall(policy *pf.Policy) *HostFirewall {
	return &HostFirewall{policy: policy}
}

// SetCompromised marks the host as attacker-controlled: filtering stops.
func (h *HostFirewall) SetCompromised(c bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.compromised = c
}

// SetPolicy replaces the local policy (central policy distribution).
func (h *HostFirewall) SetPolicy(p *pf.Policy) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.policy = p
}

// Admit decides an inbound flow. src may carry sender-supplied information
// (distributed firewalls can consult local context); nil is the common
// case.
func (h *HostFirewall) Admit(f flow.Five, src *wire.Response) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.compromised {
		h.Allowed++
		return true
	}
	d := h.policy.Evaluate(pf.Input{Flow: f, Src: src})
	if d.Action == pf.Pass {
		h.Allowed++
		return true
	}
	h.Denied++
	return false
}
