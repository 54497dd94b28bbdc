// Command identctl runs the ident++ controller for real OpenFlow-style
// switches attached over the TCP secure channel (internal/openflow's
// protocol): it loads the PF+=2 policy from a .control directory, queries
// the ident++ daemons at both ends of every new flow, and installs the
// verdicts into the switches.
//
// Host placement (which switch/port each host hangs off, and where its
// daemon listens) comes from a topology file:
//
//	# host <ip> switch <datapath-id> port <n> [daemon <addr:port>]
//	host 10.0.0.1 switch 1 port 2 daemon 10.0.0.1:783
//	host 10.0.0.2 switch 1 port 3
//
// Usage:
//
//	identctl -listen :6633 -policy ./policy.d -topology hosts.topo
//	identctl revoke [-admin addr] <host-ip> [key]
//	identctl admin [-admin addr] <view> [args]
//
// The serving controller runs the revocation plane: daemons that push
// endpoint-state updates get their flows torn down the moment a fact stops
// being true, daemons that do not are covered by TTL leases
// (-revocation-lease). Its one operator listener, -telemetry, serves
// /metrics, the health probes and the operator views (telemetry.Views)
// that `identctl revoke` and `identctl admin` call.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/sig"
	"identxx/internal/telemetry"
	"identxx/internal/trace"
)

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "admin" || os.Args[1] == "revoke") {
		adminMain(os.Args[1], os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cred" {
		credMain(os.Args[2:])
		return
	}
	listen := flag.String("listen", ":6633", "secure-channel listen address")
	policyDir := flag.String("policy", "", ".control policy directory (required)")
	topoFile := flag.String("topology", "", "host placement file (required)")
	queryTimeout := flag.Duration("query-timeout", 2*time.Second, "ident++ query timeout")
	adminAddr := flag.String("admin", "", "deprecated and ignored: the operator views are on -telemetry")
	authorityFile := flag.String("authority-key", "", "delegation-authority public key file; daemon answers require a valid credential (empty = insecure mode)")
	leaseTTL := flag.Duration("revocation-lease", 5*time.Minute, "fact lease for daemons that do not push updates (0 disables)")
	cacheTTL := flag.Duration("cache-ttl", 0, "verdict-cache TTL: a decided flow's repeats skip the daemon queries and the evaluation for this long (0 disables caching)")
	megaflow := flag.Bool("megaflow", false, "cache each verdict under the header fields its decision consumed, so it serves the whole traffic class, not only the decided flow (requires -cache-ttl)")
	telemetryAddr := flag.String("telemetry", "127.0.0.1:7833", "HTTP listen address for /metrics, /healthz, /readyz and the operator views `identctl admin` and `identctl revoke` use (empty disables)")
	telemetryPprof := flag.Bool("telemetry-pprof", false, "mount /debug/pprof/ on the telemetry listener (requires -telemetry; see docs/operations.md before enabling in production)")
	traceSample := flag.Int("trace-sample", 0, "flight recorder: retain roughly 1 in N decision traces (0 disables sampling; 1 traces everything)")
	traceSlow := flag.Duration("trace-slow", 0, "flight recorder: always retain decisions slower than this, regardless of -trace-sample (0 disables)")
	auditLog := flag.String("audit-log", "", "structured audit stream destination: file path, or - for stdout (empty disables)")
	clusterSelf := flag.String("cluster-self", "", "this replica as id@addr for multi-controller operation (empty = single controller)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated peer replicas as id@addr")
	clusterListen := flag.String("cluster-listen", "", "inter-controller listen address (defaults to -cluster-self's addr)")
	flag.Parse()
	if *adminAddr != "" {
		fmt.Fprintln(os.Stderr, "identctl: -admin is deprecated and ignored; the operator views are on -telemetry")
	}
	if *policyDir == "" || *topoFile == "" {
		fmt.Fprintln(os.Stderr, "identctl: -policy and -topology are required")
		os.Exit(2)
	}
	if *megaflow && *cacheTTL <= 0 {
		fmt.Fprintln(os.Stderr, "identctl: -megaflow requires -cache-ttl > 0 (widened entries share the cache's TTL)")
		os.Exit(2)
	}
	policy, err := pf.LoadControlDir(*policyDir)
	if err != nil {
		fatal(err)
	}
	policy.Default = pf.Block // a deployed controller fails closed

	topoBytes, err := os.ReadFile(*topoFile)
	if err != nil {
		fatal(err)
	}
	topo, err := parseTopology(string(topoBytes))
	if err != nil {
		fatal(err)
	}

	var authority sig.PublicKey
	if *authorityFile != "" {
		authority = loadAuthorityPub(*authorityFile)
	}

	// The production query plane: pooled pipelined connections to the
	// daemons the topology declares, under the retry/negative-cache/breaker
	// engine, driving the controller's non-blocking decision pipeline.
	pool := query.NewPool(query.PoolConfig{
		Resolver:       topoResolver{topo},
		RequestTimeout: *queryTimeout,
		AuthorityKey:   authority,
	})
	defer pool.Close()
	eng := query.NewEngine(query.Config{
		Lower:          pool,
		RequestTimeout: *queryTimeout,
	})
	defer eng.Close()

	// The flight recorder exists only when the operator asked for it; a nil
	// recorder is the zero-overhead disabled state everywhere downstream.
	var recorder *trace.Recorder
	if *traceSample > 0 || *traceSlow > 0 {
		recorder = trace.New(trace.Config{
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		})
	}
	// A replica's controller is named by its member id: the name is the
	// installer tag in every entry it installs, which a restart keeps and the
	// survivors delete when the replica leaves the ring.
	name := "identctl"
	var self cluster.Member
	if *clusterSelf != "" {
		var err error
		if self, err = parseMember(*clusterSelf); err != nil {
			fatal(err)
		}
		name = self.ID
	}
	ctl := core.New(core.Config{
		Name:               name,
		Policy:             policy,
		Transport:          eng,
		Topology:           topo,
		InstallEntries:     true,
		AsyncQueries:       true,
		Revocation:         true,
		RevocationLeaseTTL: *leaseTTL,
		ResponseCacheTTL:   *cacheTTL,
		Megaflow:           *megaflow,
		Trace:              recorder,
	})
	// Close the revocation loop: daemon pushes demuxed by the pool land in
	// the controller's teardown pipeline.
	eng.SetUpdateHandler(ctl.HandleUpdate)

	// Multi-controller operation: wrap the controller in the ownership
	// router. Non-owned packet-ins forward to their owning replica; each
	// replica re-queries and re-subscribes for the flows it owns.
	var rt *cluster.Router
	if *clusterSelf != "" {
		rt = cluster.NewRouter(ctl, self, cluster.Options{Trace: recorder})
		members := []cluster.Member{self}
		if *clusterPeers != "" {
			for _, p := range strings.Split(*clusterPeers, ",") {
				m, err := parseMember(strings.TrimSpace(p))
				if err != nil {
					fatal(err)
				}
				if m.Addr == "" {
					fatal(fmt.Errorf("cluster peer %s needs an address (id@addr)", m.ID))
				}
				members = append(members, m)
			}
		}
		claddr := *clusterListen
		if claddr == "" {
			claddr = self.Addr
		}
		if claddr == "" {
			fatal(fmt.Errorf("-cluster-self needs an address (id@addr) or -cluster-listen"))
		}
		cl, err := net.Listen("tcp", claddr)
		if err != nil {
			fatal(err)
		}
		rt.Serve(cl)
		defer rt.Close()
		if err := rt.SetMembers(members); err != nil {
			fmt.Fprintf(os.Stderr, "identctl: cluster: %v\n", err)
		}
		fmt.Printf("identctl: replica %s in a %d-member ring, inter-controller on %s\n",
			self.ID, len(members), claddr)
	} else if *clusterPeers != "" || *clusterListen != "" {
		fatal(fmt.Errorf("-cluster-peers/-cluster-listen require -cluster-self"))
	}
	if *leaseTTL > 0 {
		go func() {
			tick := time.NewTicker(*leaseTTL / 2)
			defer tick.Stop()
			for range tick.C {
				ctl.SweepLeases()
			}
		}()
	}
	var auditSink *telemetry.AuditSink
	if *auditLog != "" {
		w := os.Stdout
		if *auditLog != "-" {
			f, err := os.OpenFile(*auditLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		auditSink = telemetry.NewAuditSink(w, 0)
		ctl.Audit.SetStream(auditSink.Record)
		// Detach before Close so no Record races the drain.
		defer auditSink.Close()
		defer ctl.Audit.SetStream(nil)
	}
	if *telemetryAddr != "" {
		ts := telemetry.NewServer()
		telemetry.RegisterController(ts.Registry, ctl)
		if rt != nil {
			telemetry.RegisterRouter(ts.Registry, rt)
		}
		telemetry.RegisterEngine(ts.Registry, eng)
		telemetry.RegisterPool(ts.Registry, pool)
		telemetry.RegisterControllerHealth(ts.Health, ctl)
		telemetry.RegisterPoolHealth(ts.Health, pool)
		if auditSink != nil {
			telemetry.RegisterAuditSink(ts.Registry, auditSink)
		}
		telemetry.RegisterBuildInfo(ts.Registry)
		ts.MountOperator(telemetry.Operator{Ctl: ctl, Eng: eng, Rt: rt})
		if recorder != nil {
			telemetry.RegisterTrace(ts.Registry, recorder)
			ts.MountTrace(recorder)
		}
		if *telemetryPprof {
			ts.EnablePprof()
		}
		taddr, err := ts.Start(*telemetryAddr)
		if err != nil {
			fatal(err)
		}
		defer ts.Close()
		fmt.Printf("identctl: telemetry on http://%s/metrics\n", taddr)
	}
	handler := channelHandler{ctl}
	if rt != nil {
		handler.front = rt
	}
	server := openflow.NewChannelServer(handler)
	addr, err := server.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("identctl: %d rules loaded, querying keys %v, listening on %s\n",
		len(policy.Rules), policy.ReferencedKeys(), addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("identctl: shutting down;", ctl.Counters)
	server.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "identctl:", err)
	os.Exit(1)
}

// parseMember parses "id@addr" (addr optional for -cluster-self when
// -cluster-listen is given separately).
func parseMember(s string) (cluster.Member, error) {
	id, addr, _ := strings.Cut(s, "@")
	if id == "" {
		return cluster.Member{}, fmt.Errorf("bad cluster member %q, want id@addr", s)
	}
	return cluster.Member{ID: id, Addr: addr}, nil
}

// front is what a switch channel drives: the controller itself, or in
// multi-controller operation the ownership router before it.
type front interface {
	AddDatapath(openflow.Datapath)
	RemoveDatapath(openflow.Datapath) bool
	HandleEvent(openflow.PacketIn)
	HandleFlowRemoved(*openflow.Switch, openflow.FlowRemoved)
}

// channelHandler adapts ChannelServer callbacks onto the front chosen at
// start-up.
type channelHandler struct{ front }

func (h channelHandler) SwitchConnected(sw *openflow.RemoteSwitch) {
	fmt.Printf("identctl: switch %d connected\n", sw.DatapathID())
	h.AddDatapath(sw)
}

func (h channelHandler) PacketIn(sw *openflow.RemoteSwitch, ev openflow.PacketIn) {
	// The wire codec does not carry the parsed tuple; rebuild it from the
	// frame before handing the event on.
	h.HandleEvent(rebuildTuple(ev))
}

func (h channelHandler) FlowRemoved(sw *openflow.RemoteSwitch, ev openflow.FlowRemoved) {
	h.HandleFlowRemoved(nil, ev)
}

func (h channelHandler) SwitchDisconnected(sw *openflow.RemoteSwitch) {
	fmt.Printf("identctl: switch %d disconnected\n", sw.DatapathID())
	// A reconnect may already have replaced the handle; then this removes
	// nothing.
	h.RemoveDatapath(sw)
}

func rebuildTuple(ev openflow.PacketIn) openflow.PacketIn {
	var p packet.Packet
	if p.DecodeInto(ev.Frame) == nil {
		ev.Tuple = p.Ten(ev.InPort)
	}
	return ev
}

// topology is the static placement map for path computation and daemon
// addressing.
type topology struct {
	hosts map[netaddr.IP]placement
}

type placement struct {
	datapath uint64
	port     uint16
	daemon   string     // "" = no daemon
	path     []core.Hop // Path's answer toward the host, built once
}

func parseTopology(src string) (*topology, error) {
	t := &topology{hosts: make(map[netaddr.IP]placement)}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "host" || f[2] != "switch" || f[4] != "port" {
			return nil, fmt.Errorf("topology line %d: want `host <ip> switch <id> port <n> [daemon <addr>]`", lineNo+1)
		}
		ip, err := netaddr.ParseIP(f[1])
		if err != nil {
			return nil, fmt.Errorf("topology line %d: %v", lineNo+1, err)
		}
		dp, err := strconv.ParseUint(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("topology line %d: bad switch id", lineNo+1)
		}
		port, err := strconv.ParseUint(f[5], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("topology line %d: bad port", lineNo+1)
		}
		p := placement{datapath: dp, port: uint16(port)}
		p.path = []core.Hop{{Datapath: p.datapath, OutPort: p.port}}
		if len(f) >= 8 && f[6] == "daemon" {
			p.daemon = f[7]
		}
		t.hosts[ip] = p
	}
	if len(t.hosts) == 0 {
		return nil, fmt.Errorf("topology: no hosts")
	}
	return t, nil
}

// Path implements core.Topology for single-switch-per-host placements: the
// destination's attachment switch forwards out the destination's port.
// Multi-switch fabrics are the simulator's domain; a deployed identctl
// fronts one switch per segment. The slice is the placement's, shared by
// every call: the controller reads a path and never writes it.
func (t *topology) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	p, ok := t.hosts[dst]
	if !ok {
		return nil, fmt.Errorf("identctl: unknown destination host %s", dst)
	}
	return p.path, nil
}

// topoResolver maps host IPs to the daemon addresses the topology file
// declares; a host without a daemon entry is daemon-less (§4), which the
// query plane reports as core.ErrNoDaemon without dialing.
type topoResolver struct {
	topo *topology
}

func (r topoResolver) Resolve(host netaddr.IP) (string, bool) {
	p, ok := r.topo.hosts[host]
	if !ok || p.daemon == "" {
		return "", false
	}
	return p.daemon, true
}
