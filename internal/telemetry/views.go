package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/query"
	"identxx/internal/revoke"
)

// Operator is what the operator views read and drive. Eng may be nil (no
// query engine), and Rt is nil when the controller is not clustered.
type Operator struct {
	Ctl *core.Controller
	Eng *query.Engine
	Rt  *cluster.Router
}

// View is one operator view: GET is a read-only JSON snapshot, POST a
// mutation. Args names the query parameters, in order, that the positional
// words after the path fill (Request).
type View struct {
	Method, Path string
	Args         []string
	serve        func(op Operator, q url.Values) (any, error)
}

// Views is the operator surface: the drill-downs no metric carries and the
// operator's levers. docs/operations.md's "Operator views" table mirrors
// it; docs_drift_test.go pins the two.
var Views = []View{
	{Method: http.MethodGet, Path: "/hosts", serve: hostsView},
	{Method: http.MethodGet, Path: "/rules", serve: func(op Operator, _ url.Values) (any, error) { return op.Ctl.Audit.RuleCounts(), nil }},
	{Method: http.MethodGet, Path: "/shards", serve: func(op Operator, _ url.Values) (any, error) { return op.Ctl.ShardStats(), nil }},
	{Method: http.MethodGet, Path: "/ring", serve: ringView},
	{Method: http.MethodPost, Path: "/revoke", Args: []string{"host", "key"}, serve: func(op Operator, q url.Values) (any, error) {
		host, err := netaddr.ParseIP(q.Get("host"))
		if err != nil {
			return nil, err
		}
		return Torn{op.Ctl.RevokeHost(host, q.Get("key"))}, nil
	}},
	{Method: http.MethodPost, Path: "/sweep", serve: func(op Operator, _ url.Values) (any, error) { return Torn{op.Ctl.SweepLeases()}, nil }},
	{Method: http.MethodPost, Path: "/ring/drop", Args: []string{"id"}, serve: func(op Operator, q url.Values) (any, error) {
		if op.Rt == nil {
			return nil, errNoCluster
		}
		if q.Get("id") == "" {
			return nil, errors.New("ring/drop needs id=<replica-id>")
		}
		// A dial error toward a surviving peer does not undo the drop, so
		// the answer is the ring as it now is.
		_ = op.Rt.RemoveMember(q.Get("id"))
		return ringView(op, q)
	}},
}

// Torn is a revocation's answer: how many verdicts it tore down.
type Torn struct{ Flows int }

// MountOperator serves Views on this server's mux, each answering
// indented JSON. The listener carries no authentication, so a mutation
// answers 403 unless the request's TCP peer is loopback: only a shell on
// the controller's own host can revoke through it, wherever -telemetry is
// bound. The mux refuses a view asked with the other method (405).
func (s *Server) MountOperator(op Operator) {
	for _, v := range Views {
		s.mux.HandleFunc(v.Method+" "+v.Path, func(w http.ResponseWriter, req *http.Request) {
			host, _, _ := net.SplitHostPort(req.RemoteAddr)
			if ip := net.ParseIP(host); v.Method == http.MethodPost && (ip == nil || !ip.IsLoopback()) {
				http.Error(w, "mutations are served to loopback peers only", http.StatusForbidden)
				return
			}
			out, err := v.serve(op, req.URL.Query())
			switch {
			case errors.Is(err, errNoCluster):
				http.Error(w, err.Error(), http.StatusNotFound)
			case err != nil:
				http.Error(w, err.Error(), http.StatusBadRequest)
			default:
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				_ = enc.Encode(out) // past the header, an error is the connection's
			}
		})
	}
}

// Request builds the request for an operator command given as words: the
// longest run of leading words that names a view's path ("ring drop b" is
// /ring/drop), then the view's Args from the words left.
func Request(addr string, words []string) (*http.Request, error) {
	for n := len(words); n > 0; n-- {
		for _, v := range Views {
			if rest := words[n:]; v.Path == "/"+strings.Join(words[:n], "/") {
				if len(rest) > len(v.Args) {
					return nil, fmt.Errorf("%s takes at most the arguments %v, got %q", v.Path, v.Args, rest)
				}
				q := url.Values{}
				for i, arg := range rest {
					q.Set(v.Args[i], arg)
				}
				u := url.URL{Scheme: "http", Host: addr, Path: v.Path, RawQuery: q.Encode()}
				return http.NewRequest(v.Method, u.String(), nil)
			}
		}
	}
	var paths []string
	for _, v := range Views {
		paths = append(paths, v.Method+" "+v.Path)
	}
	return nil, fmt.Errorf("unknown view %q; the views are %s", strings.Join(words, " "), strings.Join(paths, ", "))
}

// HostRow is one host of the hosts view, which lists every host the
// revocation index, the query engine or a credential session knows. Cred
// is absent in insecure mode; Present is false before the host's first
// hello, and Err keeps the last verify error even while Verified.
type HostRow struct {
	Host netaddr.IP
	revoke.HostStat
	query.HostStatus
	Cred *query.CredStatus `json:",omitempty"`
}

func hostsView(op Operator, _ url.Values) (any, error) {
	rows := make(map[netaddr.IP]*HostRow)
	row := func(ip netaddr.IP) *HostRow {
		if rows[ip] == nil {
			rows[ip] = &HostRow{Host: ip}
		}
		return rows[ip]
	}
	for _, d := range op.Ctl.HostDependencies() {
		row(d.Host).HostStat = d
	}
	if op.Eng != nil {
		for _, h := range op.Eng.HostStats() {
			row(h.Host).HostStatus = h
		}
		for _, s := range op.Eng.CredentialSessions() {
			row(s.Host)
		}
	}
	out := make([]*HostRow, 0, len(rows))
	for ip, r := range rows {
		if op.Eng != nil && op.Eng.Credentialed() {
			cs, _ := op.Eng.CredentialStatus(ip)
			r.Cred = &cs
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out, nil
}

// Ring is the ring view: each replica's estimated share of the flow space,
// this replica's forwarding counters, and the last replicated-config epoch
// it applied with the replica that wrote it.
type Ring struct {
	Replicas                              []cluster.ReplicaStat
	Owned, Forwarded, Received, Fallbacks int64
	Epoch                                 uint64
	Origin                                string
}

var errNoCluster = errors.New("cluster disabled (run with -cluster-self)")

func ringView(op Operator, _ url.Values) (any, error) {
	if op.Rt == nil {
		return nil, errNoCluster
	}
	c := op.Rt.Counters
	r := Ring{
		Replicas:  op.Rt.RingStats(0),
		Owned:     c.Get("cluster_events_owned"),
		Forwarded: c.Get("cluster_events_forwarded"),
		Received:  c.Get("cluster_events_received"),
		Fallbacks: c.Get("cluster_forward_fallbacks"),
	}
	r.Epoch, r.Origin = op.Rt.Epoch()
	return r, nil
}
