package core

import (
	"time"

	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// Interceptor is the role a controller plays for ident++ traffic crossing
// its network (§2, §3.4): it may answer a query on behalf of an end-host
// (spoofing the host, without forwarding the query) or augment a response
// with an additional empty-line-delimited section. "Intercepted queries are
// not allowed to cause new queries" — InterceptQuery never queries.
type Interceptor interface {
	// InterceptQuery may answer q for host on the controller's own
	// authority, with a non-nil response. ok=false passes the query through
	// unanswered.
	InterceptQuery(host netaddr.IP, q wire.Query) (resp *wire.Response, ok bool)
	// AugmentResponse may append a section to a response in transit, and
	// reports whether it did.
	AugmentResponse(q wire.Query, resp *wire.Response) bool
}

// InterceptQuery implements Interceptor using the controller's
// answer-on-behalf table.
func (c *Controller) InterceptQuery(host netaddr.IP, q wire.Query) (*wire.Response, bool) {
	st := c.state.Load()
	pairs := st.answers[host]
	if len(pairs) == 0 {
		return nil, false
	}
	c.Counters.Add("queries_intercepted", 1)
	// Unlike the decision path's answer-on-behalf views, an intercepted
	// response leaves the controller (ownership passes to the caller and
	// from there to the querier), so it cannot come from the pf pool.
	r := &wire.Response{Flow: q.Flow}
	sec := r.Augment(c.sourceTag)
	sec.Pairs = append(sec.Pairs, pairs...)
	return r, true
}

// AugmentResponse implements Interceptor: it appends a new section produced
// by the configured augmenter, the "empty line followed by the key-value
// pairs it wishes to add" of §3.4.
func (c *Controller) AugmentResponse(q wire.Query, resp *wire.Response) bool {
	aug := c.state.Load().augment
	if aug == nil || resp == nil {
		return false
	}
	aug(q, resp)
	c.Counters.Add("responses_augmented", 1)
	return true
}

// InterceptChain applies a sequence of interceptors to a query/response
// exchange the way a path of ident++-enabled networks would (§2): the first
// interceptor willing to answer the query does so and the query stops
// travelling; otherwise the authoritative responder answers and every
// interceptor augments the response on the way back, in reverse path order.
type InterceptChain struct {
	// Outbound lists the interceptors between the querier and the host, in
	// path order.
	Outbound []Interceptor
}

// Exchange runs the chain around ask, the authoritative responder's
// exchange, and hands done its outcome. An interceptor that answers completes
// the exchange inline and ask is never called; otherwise each interceptor
// augments the response ask's completion delivers, in reverse path order,
// before done runs. A response an interceptor answered or augmented is
// flow-scoped whatever the daemon said: what the interceptor added was added
// for this flow, not for every flow to the daemon's listener.
func (ch InterceptChain) Exchange(host netaddr.IP, q wire.Query,
	ask func(done func(*wire.Response, time.Duration, error)),
	done func(*wire.Response, time.Duration, error)) {
	for _, ic := range ch.Outbound {
		if resp, ok := ic.InterceptQuery(host, q); ok {
			resp.Scope = wire.Scope{}
			done(resp, 0, nil)
			return
		}
	}
	ask(func(resp *wire.Response, rtt time.Duration, err error) {
		augmented := false
		for i := len(ch.Outbound) - 1; i >= 0; i-- {
			if ch.Outbound[i].AugmentResponse(q, resp) {
				augmented = true
			}
		}
		if augmented && resp != nil {
			resp.Scope = wire.Scope{}
		}
		done(resp, rtt, err)
	})
}
