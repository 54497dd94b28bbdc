// Package query is the controller's production query plane: it owns all
// controller→daemon communication that the paper's flow-setup pipeline
// (§2 step 3, §3.2) performs on TCP port 783.
//
// The package is two layers:
//
//   - Pool is the wire transport: one multiplexed, pipelined TCP connection
//     per end-host speaking the wire.Frame protocol against daemon.Server,
//     with request/response correlation, reconnect-with-backoff, and
//     per-request deadlines; Go starts a query and returns, and its
//     completion runs on the connection's reader (pool.go).
//
//   - Engine sits above any core.QueryTransport-shaped lower layer (the
//     Pool for real deployments, netsim.Transport for the §5–§6
//     experiments) and adds the behavior a controller serving millions of
//     users needs on the availability-critical path: bounded retries, a
//     per-host circuit breaker, a TTL'd negative cache so daemon-less or
//     down hosts stop costing a connect timeout per miss, and an
//     asynchronous completion API the controller uses to suspend a
//     decision: no goroutine is parked on the round trip, and the flight's
//     completion — retry, breaker, delivery, and with it the controller's
//     evaluate-and-install — runs on the Pool goroutine that decoded the
//     response, so it must not block (engine.go). Each query is its own
//     wire exchange: the controller already asks each end of a flow once
//     per decision.
//
// Responses delivered by the engine are read-only borrows — callers must
// not mutate or pool-release them. (The controller honors this: it caches
// verdicts, not responses, so a daemon response is read by one evaluation
// and dropped to the garbage collector — never retained past the decision,
// never returned to the pf view pool.)
package query

import (
	"errors"
	"fmt"

	"identxx/internal/link"
	"identxx/internal/netaddr"
)

// ErrDeadline is wrapped into per-request timeout failures: the request
// was written (or queued) but no response arrived in time. It reports
// Timeout() true so callers classifying with net.Error-style checks (the
// controller's query_timeouts accounting) see it as a timeout.
var ErrDeadline = link.ErrDeadline

// ErrDial is wrapped into every connection-establishment failure. The
// engine's negative cache keys off it: a host we cannot even connect to is
// down or daemon-less at host granularity, unlike a per-request timeout on
// a live connection, which says nothing about the next request.
var ErrDial = errors.New("query: dial failed")

// ErrBreakerOpen is returned without touching the wire while a host's
// circuit breaker is open.
var ErrBreakerOpen = errors.New("query: circuit breaker open")

// ErrClosed is returned by operations on a closed Pool or Engine.
var ErrClosed = errors.New("query: closed")

// Resolver maps an end-host IP to the TCP address of its ident++ daemon.
// ok=false means the deployment knows the host runs no daemon (the §4
// incremental case): the query fails with core.ErrNoDaemon without a dial.
type Resolver interface {
	Resolve(host netaddr.IP) (addr string, ok bool)
}

// StaticResolver resolves from a fixed host→address table; hosts absent
// from the table are daemon-less.
type StaticResolver map[netaddr.IP]string

// Resolve implements Resolver.
func (r StaticResolver) Resolve(host netaddr.IP) (string, bool) {
	addr, ok := r[host]
	return addr, ok
}

// PortResolver resolves every host to host:Port — the production shape,
// where each end-host serves its own daemon on the well-known port (§2's
// TCP port 783, daemon.Port).
type PortResolver struct {
	Port int
}

// Resolve implements Resolver.
func (r PortResolver) Resolve(host netaddr.IP) (string, bool) {
	return fmt.Sprintf("%s:%d", host, r.Port), true
}

// FixedResolver resolves every host to one address — the single-daemon
// shape CLI tools use when the operator names the endpoint explicitly.
type FixedResolver string

// Resolve implements Resolver.
func (r FixedResolver) Resolve(netaddr.IP) (string, bool) {
	return string(r), true
}
