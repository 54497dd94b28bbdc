package query

import (
	"time"

	"identxx/internal/netaddr"
)

// credSource is the optional credential face of a Lower: transports that
// authenticate sessions (*Pool in credentialed mode) implement it. The
// Engine passes these views through unchanged — retries and the breaker
// sit above authorization, not instead of it.
type credSource interface {
	Credentialed() bool
	HostAuthorized(host netaddr.IP) bool
	CredentialStatus(host netaddr.IP) (CredStatus, bool)
	CredentialExpiry(host netaddr.IP) (time.Time, bool)
	CredentialSessions() []HostCredStatus
}

// Credentialed reports whether the underlying transport enforces
// credentials.
func (e *Engine) Credentialed() bool {
	cs, ok := e.lower.(credSource)
	return ok && cs.Credentialed()
}

// HostAuthorized reports whether facts from host may influence verdicts.
// Lowers without a credential face authorize everyone (insecure mode); the
// controller consults this only when Credentialed reports true.
func (e *Engine) HostAuthorized(host netaddr.IP) bool {
	cs, ok := e.lower.(credSource)
	if !ok {
		return true
	}
	return cs.HostAuthorized(host)
}

// CredentialStatus returns host's credential status from the underlying
// transport; ok is false without a credentialed transport or before any
// contact with host.
func (e *Engine) CredentialStatus(host netaddr.IP) (CredStatus, bool) {
	cs, ok := e.lower.(credSource)
	if !ok {
		return CredStatus{}, false
	}
	return cs.CredentialStatus(host)
}

// CredentialExpiry returns the expiry of host's verified credential; ok
// is false without one.
func (e *Engine) CredentialExpiry(host netaddr.IP) (time.Time, bool) {
	cs, ok := e.lower.(credSource)
	if !ok {
		return time.Time{}, false
	}
	return cs.CredentialExpiry(host)
}

// CredentialSessions lists every known host's credential status (nil
// without a credentialed transport).
func (e *Engine) CredentialSessions() []HostCredStatus {
	cs, ok := e.lower.(credSource)
	if !ok {
		return nil
	}
	return cs.CredentialSessions()
}
