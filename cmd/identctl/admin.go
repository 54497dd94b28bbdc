package main

// The admin channel: a line-oriented TCP listener on the serving
// controller (enabled with -admin), and the `identctl revoke` / `identctl
// admin` subcommands that speak to it. This is what makes the revocation
// plane and the drill-down surface operable from a shell: `identctl revoke
// 10.0.0.7` tears down every live flow admitted on facts from that host;
// `identctl admin shards` dumps per-shard occupancy.
//
// Protocol (one request per line). Single-valued commands reply with one
// line; drill-down commands reply with a count line followed by exactly
// that many detail lines:
//
//	revoke <host-ip> [key]   ->  ok <flows-torn-down> | err <message>
//	sweep                    ->  ok <flows-torn-down>
//	stats                    ->  ok live=<n> registered=<n> dropped=<n>
//	stats megaflow           ->  ok live=<n> hits=<n> installs=<n> teardowns=<n>
//	stats wide               ->  ok live=<n> registered=<n> dropped=<n>
//	stats rulecache          ->  ok entries=<n> evictions=<n>
//	status                   ->  ok epoch=<n> datapaths=<n> shards=<n> cached=<n>
//	counters                 ->  ok <n>  then n lines  <name> <value>
//	shards                   ->  ok <n>  then n lines  shard=<i> pending=<n> waiters=<n>
//	hosts                    ->  ok <n>  then n lines  host=<ip> flows=<n> wide=<n> push=<bool> queries=<n> rtt_mean=<dur> rtt_p99=<dur> fails=<n> breaker=<bool> cred=<state> scope=<keys> exp=<rfc3339> cred_err=<verdict>
//	rules                    ->  ok <n>  then n lines  rule=<q-string> total=<n> denied=<n> revoked=<n>
//	creds                    ->  ok <n>  then n lines  host=<ip> present=<bool> verified=<bool> scope=<keys> exp=<rfc3339> err=<verdict>
//	ring                     ->  ok <n>  then n lines  replica=<id> addr=<addr> self=<bool> linked=<bool> share=<frac> [owned=<n> forwarded=<n> received=<n> fallbacks=<n> epoch=<n> origin=<id>]
//	ring drop <replica-id>   ->  same listing after removing the replica from the ring (failover)
//	trace [slow|<id>]        ->  ok <n>  then n JSON lines, one retained flight-recorder trace each
//
// The cred fields on `hosts` are `-` placeholders when the controller runs
// in insecure mode (no -authority-key); cred=<state> is ok, none (no hello
// seen yet), or the last rejection verdict (missing/forged/expired/scope).

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/link"
	"identxx/internal/netaddr"
	"identxx/internal/query"
	"identxx/internal/revoke"
	"identxx/internal/trace"
)

// adminState is everything the admin channel can drill into. eng may be
// nil (tests that only exercise the controller); rt is nil when the
// controller is not clustered; tr is nil unless the flight recorder was
// enabled (-trace-sample / -trace-slow).
type adminState struct {
	ctl *core.Controller
	eng *query.Engine
	rt  *cluster.Router
	tr  *trace.Recorder
}

// serveAdmin serves the admin protocol on l in the background; closing the
// result closes l and the sessions in progress.
func serveAdmin(l net.Listener, st adminState) *link.Listener {
	lis := new(link.Listener)
	lis.Serve(l, func(conn net.Conn) {
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			fmt.Fprintf(conn, "%s\n", adminCommand(st, sc.Text()))
			conn.SetDeadline(time.Now().Add(30 * time.Second))
		}
	})
	return lis
}

// adminCommand executes one admin line and renders the reply (multi-line
// for drill-down commands; the first line always starts "ok" or "err").
func adminCommand(st adminState, line string) string {
	ctl := st.ctl
	f := strings.Fields(line)
	if len(f) == 0 {
		return "err empty command"
	}
	switch f[0] {
	case "revoke":
		if len(f) < 2 || len(f) > 3 {
			return "err usage: revoke <host-ip> [key]"
		}
		host, err := netaddr.ParseIP(f[1])
		if err != nil {
			return "err " + err.Error()
		}
		key := ""
		if len(f) == 3 {
			key = f[2]
		}
		return fmt.Sprintf("ok %d", ctl.RevokeHost(host, key))
	case "sweep":
		return fmt.Sprintf("ok %d", ctl.SweepLeases())
	case "stats":
		if len(f) == 1 {
			live, registered, dropped := ctl.RevocationIndexStats()
			return fmt.Sprintf("ok live=%d registered=%d dropped=%d", live, registered, dropped)
		}
		switch f[1] {
		case "megaflow":
			live, hits, installs, teardowns := ctl.MegaflowStats()
			return fmt.Sprintf("ok live=%d hits=%d installs=%d teardowns=%d", live, hits, installs, teardowns)
		case "wide":
			live, registered, dropped := ctl.WideStats()
			return fmt.Sprintf("ok live=%d registered=%d dropped=%d", live, registered, dropped)
		case "rulecache":
			entries, evictions := ctl.PolicyRuleCacheStats()
			return fmt.Sprintf("ok entries=%d evictions=%d", entries, evictions)
		default:
			return "err unknown stats scope " + f[1]
		}
	case "status":
		cached, _, _, _ := ctl.MegaflowStats()
		return fmt.Sprintf("ok epoch=%d datapaths=%d shards=%d cached=%d",
			ctl.Epoch(), ctl.DatapathCount(), ctl.Shards(), cached)
	case "counters":
		snap := ctl.Counters.Snapshot()
		names := make([]string, 0, len(snap))
		for n := range snap {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		fmt.Fprintf(&b, "ok %d", len(names))
		for _, n := range names {
			fmt.Fprintf(&b, "\n%s %d", n, snap[n])
		}
		return b.String()
	case "shards":
		stats := ctl.ShardStats()
		var b strings.Builder
		fmt.Fprintf(&b, "ok %d", len(stats))
		for i, s := range stats {
			fmt.Fprintf(&b, "\nshard=%d pending=%d waiters=%d", i, s.Pending, s.Waiters)
		}
		return b.String()
	case "ring":
		if st.rt == nil {
			return "err cluster disabled (run with -cluster-self)"
		}
		if len(f) == 3 && f[1] == "drop" {
			st.rt.RemoveMember(f[2])
			return ringReply(st)
		}
		if len(f) != 1 {
			return "err usage: ring [drop <replica-id>]"
		}
		return ringReply(st)
	case "trace":
		return traceReply(st, f[1:])
	case "hosts":
		return hostsReply(st)
	case "creds":
		return credsReply(st)
	case "rules":
		counts := ctl.Audit.RuleCounts()
		var b strings.Builder
		fmt.Fprintf(&b, "ok %d", len(counts))
		for _, rc := range counts {
			fmt.Fprintf(&b, "\nrule=%q total=%d denied=%d revoked=%d",
				rc.Rule, rc.Total, rc.Denied, rc.Revoked)
		}
		return b.String()
	default:
		return "err unknown command " + f[0]
	}
}

// ringReply is the cluster ownership drill-down: one line per replica in
// the ring with its estimated share of the flow space, and — on the local
// replica's line — the owned/forwarded/received/fallback counters plus the
// last replicated-config epoch seen.
func ringReply(st adminState) string {
	stats := st.rt.RingStats(0)
	var b strings.Builder
	fmt.Fprintf(&b, "ok %d", len(stats))
	for _, s := range stats {
		addr := s.Member.Addr
		if addr == "" {
			addr = "-"
		}
		fmt.Fprintf(&b, "\nreplica=%s addr=%s self=%t linked=%t share=%.3f",
			s.Member.ID, addr, s.Self, s.Linked, s.Share)
		if s.Self {
			c := st.rt.Counters
			epoch, origin := st.rt.Epoch()
			if origin == "" {
				origin = "-"
			}
			fmt.Fprintf(&b, " owned=%d forwarded=%d received=%d fallbacks=%d epoch=%d origin=%s",
				c.Get("cluster_events_owned"), c.Get("cluster_events_forwarded"),
				c.Get("cluster_events_received"), c.Get("cluster_forward_fallbacks"),
				epoch, origin)
		}
	}
	return b.String()
}

// traceReply is the flight-recorder drill-down: one JSON line per retained
// trace, same encoding as the telemetry server's /trace endpoint.
func traceReply(st adminState, args []string) string {
	if st.tr == nil {
		return "err tracing disabled (run with -trace-sample or -trace-slow)"
	}
	var traces []trace.Trace
	switch {
	case len(args) == 0:
		traces = st.tr.Traces()
	case len(args) == 1 && args[0] == "slow":
		traces = st.tr.Slow()
	case len(args) == 1:
		id, err := trace.ParseID(args[0])
		if err != nil {
			return "err " + err.Error()
		}
		traces = st.tr.Find(id)
	default:
		return "err usage: trace [slow|<id>]"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ok %d", len(traces))
	var body strings.Builder
	if err := trace.WriteJSON(&body, traces); err != nil {
		return "err " + err.Error()
	}
	if s := strings.TrimSuffix(body.String(), "\n"); s != "" {
		b.WriteString("\n")
		b.WriteString(s)
	}
	return b.String()
}

// hostsReply merges the revocation index's per-host dependency view with
// the query engine's per-host availability view, keyed by IP: which hosts
// the controller currently trusts for what, and how their daemons behave.
func hostsReply(st adminState) string {
	deps := st.ctl.HostDependencies()
	depBy := make(map[netaddr.IP]revoke.HostStat, len(deps))
	ips := make([]netaddr.IP, 0, len(deps))
	for _, d := range deps {
		depBy[d.Host] = d
		ips = append(ips, d.Host)
	}
	var engBy map[netaddr.IP]query.HostStatus
	if st.eng != nil {
		hs := st.eng.HostStats()
		engBy = make(map[netaddr.IP]query.HostStatus, len(hs))
		for _, h := range hs {
			engBy[h.Host] = h
			if _, ok := depBy[h.Host]; !ok {
				ips = append(ips, h.Host)
			}
		}
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "ok %d", len(ips))
	for _, ip := range ips {
		d := depBy[ip]
		e := engBy[ip]
		state, scope, exp, credErr := credFields(st.eng, ip)
		fmt.Fprintf(&b, "\nhost=%s flows=%d wide=%d push=%t queries=%d rtt_mean=%s rtt_p99=%s fails=%d breaker=%t cred=%s scope=%s exp=%s cred_err=%s",
			ip, d.Flows, d.Wide, d.Push, e.Queries,
			e.RTTMean.Round(time.Microsecond), e.RTTP99.Round(time.Microsecond),
			e.Fails, e.BreakerOpen, state, scope, exp, credErr)
	}
	return b.String()
}

// credFields renders one host's credential status for the hosts table:
// all `-` in insecure mode; cred=none before any hello; otherwise ok or
// the rejection verdict. cred_err keeps the last verify error even while
// cred=ok (a verified session that had an answer rejected for scope shows
// cred=ok cred_err=scope).
func credFields(eng *query.Engine, ip netaddr.IP) (state, scope, exp, credErr string) {
	state, scope, exp, credErr = "-", "-", "-", "-"
	if eng == nil || !eng.Credentialed() {
		return
	}
	cs, ok := eng.CredentialStatus(ip)
	if !ok || !cs.Present {
		state = "none"
		return
	}
	switch {
	case cs.Verified:
		state = "ok"
	case cs.Err != "":
		state = cs.Err
	default:
		state = "none"
	}
	if cs.Wild {
		scope = "*"
	} else if len(cs.Scope) > 0 {
		scope = strings.Join(cs.Scope, ",")
	}
	if !cs.Expiry.IsZero() {
		exp = cs.Expiry.UTC().Format(time.RFC3339)
	}
	if cs.Err != "" {
		credErr = cs.Err
	}
	return
}

// credsReply is the credential drill-down: one line per session the query
// plane has seen, whatever its verdict. Empty in insecure mode.
func credsReply(st adminState) string {
	var sessions []query.HostCredStatus
	if st.eng != nil {
		sessions = st.eng.CredentialSessions()
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].Host < sessions[j].Host })
	var b strings.Builder
	fmt.Fprintf(&b, "ok %d", len(sessions))
	for _, s := range sessions {
		scope, exp, errStr := "-", "-", "-"
		if s.Wild {
			scope = "*"
		} else if len(s.Scope) > 0 {
			scope = strings.Join(s.Scope, ",")
		}
		if !s.Expiry.IsZero() {
			exp = s.Expiry.UTC().Format(time.RFC3339)
		}
		if s.Err != "" {
			errStr = s.Err
		}
		fmt.Fprintf(&b, "\nhost=%s present=%t verified=%t scope=%s exp=%s err=%s",
			s.Host, s.Present, s.Verified, scope, exp, errStr)
	}
	return b.String()
}

// revokeMain is the `identctl revoke` subcommand: it connects to a serving
// identctl's admin channel and requests the teardown.
func revokeMain(args []string) {
	fs := flag.NewFlagSet("revoke", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:7833", "admin address of the serving identctl")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: identctl revoke [-admin addr] <host-ip> [key]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) < 1 || len(rest) > 2 {
		fs.Usage()
		os.Exit(2)
	}
	if _, err := netaddr.ParseIP(rest[0]); err != nil {
		fatal(err)
	}
	line := "revoke " + strings.Join(rest, " ")
	reply, err := adminRoundTrip(*admin, line)
	if err != nil {
		fatal(err)
	}
	if !strings.HasPrefix(reply, "ok ") {
		fatal(fmt.Errorf("controller refused: %s", reply))
	}
	fmt.Printf("identctl: revoked %s flow(s) for %s\n", strings.TrimPrefix(reply, "ok "), rest[0])
}

// listCommands are the drill-down commands whose reply is a count line
// followed by that many detail lines.
var listCommands = map[string]bool{
	"counters": true,
	"shards":   true,
	"hosts":    true,
	"rules":    true,
	"creds":    true,
	"ring":     true,
	"trace":    true,
}

// adminMain is the `identctl admin` subcommand: it sends one admin command
// and prints the reply — the detail lines for drill-down commands, the
// single reply line otherwise.
func adminMain(args []string) {
	fs := flag.NewFlagSet("admin", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:7833", "admin address of the serving identctl")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: identctl admin [-admin addr] <command> [args]")
		fmt.Fprintln(os.Stderr, "commands: status, stats [megaflow|wide|rulecache], counters, shards, hosts, rules, creds, ring [drop <id>], trace [slow|<id>], sweep")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		os.Exit(2)
	}
	line := strings.Join(rest, " ")

	conn, err := net.DialTimeout("tcp", *admin, 5*time.Second)
	if err != nil {
		fatal(fmt.Errorf("dial admin %s: %w", *admin, err))
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		fatal(fmt.Errorf("admin closed without a reply"))
	}
	head := sc.Text()
	if !strings.HasPrefix(head, "ok") {
		fatal(fmt.Errorf("controller refused: %s", head))
	}
	if listCommands[rest[0]] {
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(head, "ok")))
		if err != nil {
			fatal(fmt.Errorf("malformed count line %q", head))
		}
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				fatal(fmt.Errorf("admin closed after %d of %d detail lines", i, n))
			}
			fmt.Println(sc.Text())
		}
		return
	}
	fmt.Println(head)
}

// adminRoundTrip sends one admin line and returns the one-line reply.
func adminRoundTrip(addr, line string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", fmt.Errorf("identctl: dial admin %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return "", err
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		return "", fmt.Errorf("identctl: admin closed without a reply")
	}
	return sc.Text(), nil
}
