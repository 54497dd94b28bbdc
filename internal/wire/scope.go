package wire

import (
	"strconv"
	"strings"

	"identxx/internal/netaddr"
)

// Scope is what an answer covers. The zero Scope is flow scope: the answer
// is about the one flow it was asked for, which is what every answer meant
// before scopes existed. A listener scope (Proto non-zero) says the answer is
// the one the daemon gives every flow to Port over Proto that it resolves
// through its listener table — "a destination that has yet to accept a
// connection" (§3.5) — so a controller may keep it and serve the next flow to
// that listener without asking again, until the daemon publishes an update
// at the same scope.
//
// A scope is not a fact. On a response it rides as the payload's last line,
//
//	scope: listener <proto>/<port>
//
// which DecodeResponse takes off the pairs it read, so no policy ever sees
// it; a legacy decoder keeps it as one more unsolicited pair (§3.2 allows
// those) and treats the answer as flow-scoped. On an update it is one
// more line a legacy decoder skips, which leaves it the resync shape — the
// safe reading of "everything under this listener changed".
type Scope struct {
	Proto netaddr.Proto
	Port  netaddr.Port
}

// ListenerScope is the scope of the answer every flow to port over proto
// gets from its listener.
func ListenerScope(proto netaddr.Proto, port netaddr.Port) Scope {
	return Scope{Proto: proto, Port: port}
}

// Listener reports whether s is a listener scope, not flow scope.
func (s Scope) Listener() bool { return s.Proto != 0 }

// String renders the scope as its wire line's value: "flow" or
// "listener <proto>/<port>".
func (s Scope) String() string {
	if !s.Listener() {
		return "flow"
	}
	return string(s.appendValue(nil))
}

const (
	scopeKey            = "scope"
	scopeLinePrefix     = scopeKey + ": "
	listenerScopePrefix = "listener "
)

func (s Scope) appendValue(b []byte) []byte {
	b = append(b, listenerScopePrefix...)
	b = strconv.AppendUint(b, uint64(s.Proto), 10)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(s.Port), 10)
}

// appendScopeLine appends s's line, nothing for flow scope.
func appendScopeLine(b []byte, s Scope) []byte {
	if !s.Listener() {
		return b
	}
	b = append(b, scopeLinePrefix...)
	return append(s.appendValue(b), '\n')
}

// parseScopeValue parses "listener <proto>/<port>", exactly as appendValue
// writes it with a non-zero protocol; anything else is not a scope.
func parseScopeValue(v string) (Scope, bool) {
	rest, ok := strings.CutPrefix(v, listenerScopePrefix)
	if !ok {
		return Scope{}, false
	}
	p, port, ok := strings.Cut(rest, "/")
	if !ok {
		return Scope{}, false
	}
	proto, err1 := strconv.ParseUint(p, 10, 8)
	n, err2 := strconv.ParseUint(port, 10, 16)
	if err1 != nil || err2 != nil || proto == 0 {
		return Scope{}, false
	}
	return Scope{Proto: netaddr.Proto(proto), Port: netaddr.Port(n)}, true
}

// takeScope moves a decoded response's last pair into its Scope when the
// pair is a scope line — the one appendScopeLine writes — and leaves the
// response as it is otherwise. Deciding on the decoded pair, not the raw
// line, makes decode∘encode stable whatever white space or empty lines
// surround it.
func takeScope(r *Response) {
	last := &r.Sections[len(r.Sections)-1]
	n := len(last.Pairs)
	if n == 0 || last.Pairs[n-1].Key != scopeKey {
		return
	}
	s, ok := parseScopeValue(last.Pairs[n-1].Value)
	if !ok {
		return
	}
	r.Scope = s
	if last.Pairs = last.Pairs[: n-1 : n-1]; n == 1 {
		last.Pairs = nil
	}
}
