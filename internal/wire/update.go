package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// This file defines the revocation plane's wire message: the unsolicited
// Update a daemon pushes when an endpoint fact it previously asserted stops
// being true (a process exited, a user logged out, new configuration was
// installed). The paper's verdicts are computed from facts that are only
// checked at flow-setup time; updates close that loop, making delegated
// decisions revocable instead of merely expirable (the delegation
// literature's requirement that revocation propagate promptly).
//
// An update payload reuses the line-oriented §3.2 text format:
//
//	<PROTO> <SRC PORT> <DST PORT>
//	serial: <n>
//	[hello: 1]
//	[scope: listener <proto>/<port>]
//	[key: <key>]
//	[old: <value>]
//	[new: <value>]
//	[cred: <credential blob>]
//	[csig: <hello transcript signature>]
//
// The tuple line is all zeros (and the frame envelope's addresses are
// zero) when the update is not scoped to one flow. Which daemon the update
// is about is implicit in the connection it arrives on — exactly as with
// responses, host identity belongs to the transport, not the payload.

// Update is one daemon-pushed endpoint-state change.
//
// Scoping, most to least specific:
//
//   - Flow set (non-zero): the facts the daemon asserted for exactly that
//     flow changed (or stopped being tracked). Key/Old/New name the first
//     changed fact for the audit trail; the controller revokes the flow
//     whatever the key.
//   - Scope set (a listener scope, Flow zero): the answer the daemon gave
//     at that scope changed or stopped being given — the listener's owner
//     exited, the port was bound again, or a flow to it now has an answer
//     of its own (see Scope). Every verdict that took this host's answer at
//     that scope is affected. The scope rides a line a legacy decoder skips,
//     so to a receiver that does not read it the update is a resync.
//   - Flow zero, Key set: every flow whose verdict read Key from this host
//     is affected (operator-initiated revocations use this shape).
//   - Flow zero, Key empty: resync — everything the controller believes
//     about this host is suspect (serial gap, reconnection, daemon
//     restart). Transports also synthesize this form locally.
//
// Serial is the daemon's per-host monotonically increasing update number;
// a receiver seeing a gap knows it missed updates and must resync. Hello
// marks the subscription acknowledgement: it carries the daemon's current
// serial and asserts nothing, but its arrival proves the daemon pushes
// updates at all (hosts that never say hello fall back to TTL leases on
// the controller).
// Hellos may additionally carry the daemon's delegation credential: Cred
// is the credential blob (internal/cred wire form) and CredSig the
// session-key signature over this hello's (host, serial) transcript.
// Both ride optional `cred:`/`csig:` lines, so legacy peers on either
// side interoperate — old daemons send hellos without them (a
// credential-requiring controller then counts the session unverified),
// and old controllers skip them as unknown lines.
type Update struct {
	Flow    flow.Five
	Scope   Scope
	Key     string
	Old     string
	New     string
	Serial  uint64
	Hello   bool
	Cred    string
	CredSig string
}

// FlowScoped reports whether the update names one flow.
func (u Update) FlowScoped() bool { return u.Flow != (flow.Five{}) }

// Resync reports whether the update invalidates everything known about the
// host: not a hello, no flow, no scope, no key.
func (u Update) Resync() bool {
	return !u.Hello && !u.FlowScoped() && !u.Scope.Listener() && u.Key == ""
}

// EncodeUpdate renders the update payload.
func EncodeUpdate(u Update) []byte { return appendUpdate(nil, u) }

// appendUpdate appends the update payload to b: the bytes EncodeUpdate
// renders, written in place.
func appendUpdate(b []byte, u Update) []byte {
	b = appendTupleLine(b, u.Flow)
	b = append(b, "serial: "...)
	b = append(strconv.AppendUint(b, u.Serial, 10), '\n')
	if u.Hello {
		b = append(b, "hello: 1\n"...)
	}
	b = appendScopeLine(b, u.Scope)
	if u.Key != "" {
		b = appendUpdateLine(b, "key: ", strings.TrimSpace(u.Key))
	}
	if u.Old != "" {
		b = appendUpdateLine(b, "old: ", u.Old)
	}
	if u.New != "" {
		b = appendUpdateLine(b, "new: ", u.New)
	}
	if u.Cred != "" {
		b = appendUpdateLine(b, "cred: ", u.Cred)
	}
	if u.CredSig != "" {
		b = appendUpdateLine(b, "csig: ", u.CredSig)
	}
	return b
}

func appendUpdateLine(b []byte, prefix, v string) []byte {
	b = append(b, prefix...)
	return append(append(b, sanitizeValue(v)...), '\n')
}

// DecodeUpdate parses an update payload. As with queries and responses, the
// flow's IP addresses come from the transport envelope.
func DecodeUpdate(payload []byte, srcIP, dstIP netaddr.IP) (Update, error) {
	return decodeUpdate(payload, srcIP, dstIP, nil)
}

// decodeUpdate is DecodeUpdate with Key, Old and New taken from t (nil:
// copies of their own). Lines are cut from payload in place and nothing of it
// is kept: a value is copied, or found in t, and Cred and CredSig — which only
// a hello carries — are copied.
func decodeUpdate(payload []byte, srcIP, dstIP netaddr.IP, t *BodyTable) (Update, error) {
	if len(payload) > MaxMessageSize {
		return Update{}, fmt.Errorf("wire: update exceeds %d bytes", MaxMessageSize)
	}
	first, rest, more := bytes.Cut(payload, newline)
	if len(bytes.TrimSpace(first)) == 0 {
		return Update{}, fmt.Errorf("wire: empty update")
	}
	f, err := parseTupleLine(string(first))
	if err != nil {
		return Update{}, err
	}
	f.SrcIP, f.DstIP = srcIP, dstIP
	u := Update{Flow: f}
	sawSerial := false
	for more {
		var l []byte
		l, rest, more = bytes.Cut(rest, newline)
		if l = bytes.TrimSpace(l); len(l) == 0 {
			continue
		}
		colon := bytes.IndexByte(l, ':')
		if colon < 0 {
			return Update{}, fmt.Errorf("wire: malformed update line %q", l)
		}
		val := bytes.TrimSpace(l[colon+1:])
		switch string(bytes.TrimSpace(l[:colon])) {
		case "serial":
			n, err := strconv.ParseUint(string(val), 10, 64)
			if err != nil {
				return Update{}, fmt.Errorf("wire: bad update serial %q", val)
			}
			u.Serial = n
			sawSerial = true
		case "hello":
			u.Hello = string(val) == "1"
		case scopeKey:
			// A scope this decoder cannot read leaves the update a
			// resync, never a narrower one.
			u.Scope, _ = parseScopeValue(string(val))
		case "key":
			u.Key = t.str(val)
		case "old":
			u.Old = t.str(val)
		case "new":
			u.New = t.str(val)
		case "cred":
			u.Cred = string(val)
		case "csig":
			u.CredSig = string(val)
		default:
			// Unknown lines are skipped: future daemons may say more.
		}
	}
	if !sawSerial {
		return Update{}, fmt.Errorf("wire: update without serial")
	}
	return u, nil
}
