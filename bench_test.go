// Package identxx_bench regenerates every evaluation artifact of the paper
// (E1-E8, one per figure/section — see DESIGN.md's per-experiment index)
// and the implied microbenchmarks (M1-M6). Run with:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks execute the full scenario per iteration, so their ns/op
// is the cost of the whole experiment; their correctness is asserted by the
// experiment's own table checks (run via internal/experiments tests and
// cmd/identxx-bench).
package identxx_bench

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/cred"
	"identxx/internal/daemon"
	"identxx/internal/experiments"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/revoke"
	"identxx/internal/sig"
	"identxx/internal/trace"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

func benchExperiment(b *testing.B, run func(w io.Writer) *experiments.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(io.Discard)
	}
}

func BenchmarkE1_FlowSetup(b *testing.B)          { benchExperiment(b, experiments.RunE1) }
func BenchmarkE2_SkypePolicy(b *testing.B)        { benchExperiment(b, experiments.RunE2) }
func BenchmarkE3_ResearchDelegation(b *testing.B) { benchExperiment(b, experiments.RunE3) }
func BenchmarkE4_TrustDelegation(b *testing.B)    { benchExperiment(b, experiments.RunE4) }
func BenchmarkE5_PatchGate(b *testing.B)          { benchExperiment(b, experiments.RunE5) }
func BenchmarkE6_Compromise(b *testing.B)         { benchExperiment(b, experiments.RunE6) }
func BenchmarkE7_BranchCollab(b *testing.B)       { benchExperiment(b, experiments.RunE7) }
func BenchmarkE8_Incremental(b *testing.B)        { benchExperiment(b, experiments.RunE8) }
func BenchmarkE9_Revocation(b *testing.B)         { benchExperiment(b, experiments.RunE9) }

// BenchmarkM1_SetupVsPolicySize sweeps flow-setup cost against policy size
// and topology diameter: the Ethane-lineage scalability question. The
// reported setup_p50_us metric is the controller's measured setup p50 (two
// daemon round trips over loopback TCP plus evaluation); ns/op is the whole
// flow's cost, switches and daemons included.
func BenchmarkM1_SetupVsPolicySize(b *testing.B) {
	for _, rules := range []int{10, 100, 1000} {
		for _, diameter := range []int{1, 4, 8} {
			name := ""
			switch {
			case rules < 100:
				name = "rules=10"
			case rules < 1000:
				name = "rules=100"
			default:
				name = "rules=1000"
			}
			b.Run(name+"/diameter="+itoa(diameter), func(b *testing.B) {
				sb := experiments.NewSetupBench(diameter, rules)
				defer sb.Net.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sb.OneFlow(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(sb.Ctl.Setup.Total.Quantile(0.5))/1e3, "setup_p50_us")
			})
		}
	}
}

// BenchmarkM2_PFEval measures PF+=2 evaluation throughput against rule
// count, with the `quick` ablation showing what short-circuiting buys.
func BenchmarkM2_PFEval(b *testing.B) {
	f := flow.Five{
		SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 5060,
	}
	in := pf.Input{Flow: f}
	src := wire.NewResponse(f)
	src.Add(wire.KeyName, "skype")
	dst := wire.NewResponse(f)
	dst.Add(wire.KeyName, "skype")
	in.Src, in.Dst = src, dst
	for _, rules := range []int{10, 100, 1000} {
		for _, quick := range []bool{false, true} {
			name := "rules=" + itoa(rules)
			if quick {
				name += "/quick"
			} else {
				name += "/scan"
			}
			b.Run(name, func(b *testing.B) {
				p := experiments.SyntheticPolicy(rules, quick)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if d := p.Evaluate(in); d.Action != pf.Pass {
						b.Fatal("wrong decision")
					}
				}
			})
		}
	}
}

// BenchmarkM3_FlowTable measures the switch datapath: exact-match lookup
// (the hot path for cached verdicts) and flow-mod installation throughput.
// The wildcard-scan variant lives in internal/openflow's benches.
func BenchmarkM3_FlowTable(b *testing.B) {
	b.Run("lookup-exact-1k-entries", func(b *testing.B) {
		tb := openflow.NewTable(0)
		now := time.Now()
		var ten flow.Ten
		ten.EthType = flow.EthTypeIPv4
		ten.Proto = netaddr.ProtoTCP
		for i := 0; i < 1000; i++ {
			ten.DstPort = netaddr.Port(i)
			e := &openflow.Entry{Match: flow.ExactMatch(ten), Actions: openflow.Output(1)}
			if err := tb.Insert(e, now); err != nil {
				b.Fatal(err)
			}
		}
		ten.DstPort = 500
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tb.Lookup(ten, 64, now) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("flow-mod-install", func(b *testing.B) {
		sw := openflow.NewSwitch(1, "bench", 0)
		sw.AddPort(1)
		var ten flow.Ten
		ten.EthType = flow.EthTypeIPv4
		ten.Proto = netaddr.ProtoTCP
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ten.DstPort = netaddr.Port(i)
			ten.SrcPort = netaddr.Port(i >> 16)
			err := sw.Apply(openflow.FlowMod{
				Match:    flow.ExactMatch(ten),
				Actions:  openflow.Output(1),
				BufferID: openflow.BufferNone,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkM4_WireRTT measures a full ident++ exchange over a real TCP
// loopback socket: dial, framed query, daemon lookup, framed response. Each
// iteration opens and closes a Pool of its own, so the dial is in every
// exchange.
func BenchmarkM4_WireRTT(b *testing.B) {
	client := hostinfo.New("pc", netaddr.MustParseIP("10.0.0.1"), 1)
	alice := client.AddUser("alice", "users")
	proc := client.Exec(alice, workload.Skype.Exe())
	five, err := client.Connect(proc.PID, flow.Five{
		DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := daemon.New(client)
	srv := daemon.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	resolver := query.FixedResolver(addr.String())
	q := wire.Query{Flow: five, Keys: []string{wire.KeyUserID, wire.KeyName}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := query.NewPool(query.PoolConfig{Resolver: resolver})
		resp, _, err := pool.Query(five.SrcIP, q)
		pool.Close()
		if err != nil {
			b.Fatal(err)
		}
		if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
			b.Fatal("wrong response")
		}
	}
}

// BenchmarkM6_SigCost measures what Ed25519 verification adds to the
// decision path (Figures 5/7's verify), against the same policy without it.
func BenchmarkM6_SigCost(b *testing.B) {
	for _, withVerify := range []bool{false, true} {
		name := "no-verify"
		if withVerify {
			name = "verify"
		}
		b.Run(name, func(b *testing.B) {
			policy, in := experiments.VerifyPolicy(withVerify)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := policy.Evaluate(in); d.Action != pf.Pass {
					b.Fatalf("wrong decision: %+v", d.Diags)
				}
			}
		})
	}
}

// m7Transport serves one canned response per host with zero latency, so
// the benchmark measures the controller, not the daemons.
type m7Transport struct {
	responses map[netaddr.IP]map[string]string
}

func (t *m7Transport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	kv, ok := t.responses[host]
	if !ok {
		done(nil, 0, core.ErrNoDaemon)
		return
	}
	r := wire.NewResponse(q.Flow)
	for k, v := range kv {
		r.Add(k, v)
	}
	done(r, 0, nil)
}

// m7Topo returns a fixed one-hop path.
type m7Topo struct{ hops []core.Hop }

func (t *m7Topo) Path(src, dst netaddr.IP) ([]core.Hop, error) { return t.hops, nil }

// m7Datapath is a sink: the benchmark target is the controller's decision
// pipeline, so the switch side costs one atomic add and nothing else.
type m7Datapath struct {
	id   uint64
	mods atomic.Int64
}

func (d *m7Datapath) DatapathID() uint64           { return d.id }
func (d *m7Datapath) Apply(openflow.FlowMod) error { d.mods.Add(1); return nil }
func (d *m7Datapath) ReleaseBuffer(id uint32)      {}

// BenchmarkM7_ShardedHandleEvent measures packet-in throughput on the
// sharded fast path under b.RunParallel, across shard counts. Every
// goroutine cycles its own working set of flows with the verdict cache
// warm, so an iteration is the Figure 1 pipeline minus daemon RTTs and
// evaluation: snapshot load, shard claim, cache hit, audit, and a one-hop
// install. shards=1 approximates the old single-lock controller;
// the spread to shards=16 is what the sharding buys on a multi-core host.
func BenchmarkM7_ShardedHandleEvent(b *testing.B) {
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	for _, shards := range []int{1, 4, 16} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			tr := &m7Transport{responses: map[netaddr.IP]map[string]string{
				srcIP: {"name": "skype", "version": "210"},
				dstIP: {"name": "skype"},
			}}
			dp := &m7Datapath{id: 1}
			ctl := core.New(core.Config{
				Name:             "m7",
				Policy:           pf.MustCompile("m7", "block all\npass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)"),
				Transport:        tr,
				Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
				ResponseCacheTTL: time.Hour,
				Shards:           shards,
			})
			ctl.AddDatapath(dp)
			var gid atomic.Uint32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Distinct per-goroutine flows: parallelism without
				// duplicate-suppression collisions.
				g := gid.Add(1)
				const working = 128
				i := 0
				for pb.Next() {
					ev := openflow.PacketIn{
						SwitchID: 1,
						BufferID: openflow.BufferNone,
						InPort:   1,
						Tuple: flow.Ten{
							EthType: flow.EthTypeIPv4,
							SrcIP:   srcIP, DstIP: dstIP,
							Proto:   netaddr.ProtoTCP,
							SrcPort: netaddr.Port(g),
							DstPort: netaddr.Port(1 + i%working),
						},
					}
					ctl.HandleEvent(ev)
					i++
				}
			})
			b.StopTimer()
			if ctl.Counters.Get("flows_allowed") == 0 {
				b.Fatal("no flows decided")
			}
		})
	}
}

// m8NoDaemonTransport fails every query, forcing the controller onto the
// answer-on-behalf path (§4 incremental deployment) with zero transport
// allocations, so the benchmark isolates the controller's own cost.
type m8NoDaemonTransport struct{}

func (m8NoDaemonTransport) QueryAsync(_ netaddr.IP, _ wire.Query, done func(*wire.Response, time.Duration, error)) {
	done(nil, 0, core.ErrNoDaemon)
}

// m8Policy is the M7 policy: a deny-all opener and one pass rule with two
// dictionary predicates, the paper's canonical shape.
const m8Policy = "block all\npass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)"

// m8Event builds the canonical single-flow packet-in for the allocation
// benchmarks and budget guards.
func m8Event(srcIP, dstIP netaddr.IP) openflow.PacketIn {
	return openflow.PacketIn{
		SwitchID: 1,
		BufferID: openflow.BufferNone,
		InPort:   1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   srcIP, DstIP: dstIP,
			Proto:   netaddr.ProtoTCP,
			SrcPort: 40000, DstPort: 80,
		},
	}
}

// BenchmarkM8_AllocProfile measures per-event allocations on the two
// steady-state decision paths the ≤ 2 allocs/op budget covers (see
// TestAllocBudget and README "Allocation budget"):
//
//   - cache-hit: warm verdict cache (an exact entry), the M7 fast path.
//   - miss-local-answer: cache disabled, no daemons anywhere, both ends
//     answered from the controller's answer-on-behalf table — the full
//     query fan-out and pooled response-view cycle every event.
//
// CI's bench-compare job runs this with -benchmem on base and head and
// fails on allocs/op regressions.
func BenchmarkM8_AllocProfile(b *testing.B) {
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")

	b.Run("cache-hit", func(b *testing.B) {
		tr := &m7Transport{responses: map[netaddr.IP]map[string]string{
			srcIP: {"name": "skype"},
			dstIP: {"name": "skype"},
		}}
		ctl := core.New(core.Config{
			Name:             "m8",
			Policy:           pf.MustCompile("m8", m8Policy),
			Transport:        tr,
			Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
			ResponseCacheTTL: time.Hour,
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		ev := m8Event(srcIP, dstIP)
		ctl.HandleEvent(ev) // warm the cache and the pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
		b.StopTimer()
		if ctl.Counters.Get("megaflow_hits") < int64(b.N) {
			b.Fatal("cache-hit path not exercised")
		}
	})

	b.Run("miss-local-answer", func(b *testing.B) {
		ctl := core.New(core.Config{
			Name:      "m8",
			Policy:    pf.MustCompile("m8", m8Policy),
			Transport: m8NoDaemonTransport{},
			Topology:  &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
			// No verdict cache: every event runs the full two-ended query
			// fan-out and builds (and releases) both response views.
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		ctl.AnswerForHost(srcIP, wire.KV{Key: wire.KeyName, Value: "skype"})
		ctl.AnswerForHost(dstIP, wire.KV{Key: wire.KeyName, Value: "skype"})
		ev := m8Event(srcIP, dstIP)
		ctl.HandleEvent(ev) // warm the pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
		b.StopTimer()
		if ctl.Counters.Get("flows_allowed") == 0 {
			b.Fatal("no flows decided")
		}
		if ctl.Counters.Get("answered_on_behalf") == 0 {
			b.Fatal("answer-on-behalf path not exercised")
		}
	})
}

// m9Host builds one daemon'd end-host serving skype on a loopback socket.
func m9Host(b *testing.B, name, ip string) (netaddr.IP, string, flow.Five) {
	b.Helper()
	hostIP := netaddr.MustParseIP(ip)
	h := hostinfo.New(name, hostIP, 1)
	alice := h.AddUser("alice", "users")
	proc := h.Exec(alice, workload.Skype.Exe())
	five, err := h.Connect(proc.PID, flow.Five{
		DstIP: netaddr.MustParseIP("10.4.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := daemon.New(h)
	srv := daemon.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return hostIP, addr.String(), five
}

// BenchmarkM9_QueryPlane measures the asynchronous query plane end to end
// over real loopback sockets (engine → pooled pipelined transport →
// daemon.Server):
//
//   - hit: the controller's steady state with the async transport wired in —
//     warm verdict cache, so the query plane is never touched. This variant
//     carries the same ≤ 2 allocs/op budget as M8 (CI gates it): adopting
//     the async pipeline must not cost the cache-hit path anything.
//   - miss: one full wire round trip per op through the pipelined
//     connection — the per-flow price of a cold cache.
//   - async: what identctl does on a miss — QueryAsync with 32 queries
//     outstanding on the one connection, each completion issuing the next
//     from the reader it runs on. ns/op and allocs/op are per query: the
//     query plane's own cost with the round trips overlapped, the
//     in-process daemon's answer included. Every answer repeats one body,
//     which the connection's reader decodes once, so CI gates it at 0
//     allocs/op.
//   - daemon-down: the host's port answers nothing — after each refused
//     dial the pool's backoff window fails every miss fast with the same
//     ErrNoDaemon (CI gates it at 0 allocs/op).
//   - scoped-miss: a controller with no verdict cache deciding fresh flows
//     to one listener whose answer it holds (a daemon gave it at listener
//     scope): each op is one miss and one wire query, the source's, over
//     real daemons. The steady-state miss allocates nothing — the
//     source's answer is decoded once per connection and the flow's
//     revocation record is a recycled one — and CI gates it at 0.
func BenchmarkM9_QueryPlane(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		srcIP, srcAddr, five := m9Host(b, "pc", "10.4.0.1")
		dstIP, dstAddr, _ := m9Host(b, "server", "10.4.0.2")
		pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{
			srcIP: srcAddr, dstIP: dstAddr,
		}})
		b.Cleanup(func() { pool.Close() })
		eng := query.NewEngine(query.Config{Lower: pool})
		b.Cleanup(eng.Close)
		ctl := core.New(core.Config{
			Name: "m9",
			// The rule must read an endpoint key: a header-only policy
			// would be decided by the pre-pass and never warm the verdict
			// cache this variant measures.
			Policy:           pf.MustCompile("m9", "block all\npass from any to any with eq(@src[name], skype)"),
			Transport:        eng,
			Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
			ResponseCacheTTL: time.Hour,
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		ev := openflow.PacketIn{
			SwitchID: 1, BufferID: openflow.BufferNone, InPort: 1,
			Tuple: flow.Ten{
				EthType: flow.EthTypeIPv4,
				SrcIP:   five.SrcIP, DstIP: five.DstIP, Proto: five.Proto,
				SrcPort: five.SrcPort, DstPort: five.DstPort,
			},
		}
		ctl.HandleEvent(ev) // decide once: warm cache and pools
		deadline := time.Now().Add(5 * time.Second)
		for ctl.Counters.Get("flows_allowed") == 0 {
			if time.Now().After(deadline) {
				b.Fatal("warm-up decision never completed")
			}
			time.Sleep(time.Millisecond)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
		b.StopTimer()
		if ctl.Counters.Get("megaflow_hits") < int64(b.N) {
			b.Fatal("cache-hit path not exercised")
		}
	})

	b.Run("miss", func(b *testing.B) {
		srcIP, srcAddr, five := m9Host(b, "pc", "10.4.1.1")
		pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{srcIP: srcAddr}})
		b.Cleanup(func() { pool.Close() })
		eng := query.NewEngine(query.Config{Lower: pool})
		b.Cleanup(eng.Close)
		q := wire.Query{Flow: five, Keys: []string{wire.KeyUserID, wire.KeyName}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, _, err := eng.Query(srcIP, q)
			if err != nil {
				b.Fatal(err)
			}
			if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
				b.Fatal("wrong response")
			}
		}
	})

	b.Run("async", func(b *testing.B) {
		srcIP, srcAddr, five := m9Host(b, "pc", "10.4.4.1")
		pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{srcIP: srcAddr}})
		b.Cleanup(func() { pool.Close() })
		eng := query.NewEngine(query.Config{Lower: pool})
		b.Cleanup(eng.Close)
		// Distinct flows, as the controller's are: it never has two queries
		// for one end of a flow outstanding.
		const window = 32
		qs := make([]wire.Query, window)
		for i := range qs {
			qs[i] = wire.Query{Flow: five, Keys: []string{wire.KeyUserID, wire.KeyName}}
			qs[i].Flow.SrcPort += netaddr.Port(i)
		}
		var issued, failed atomic.Int64
		finished := make(chan struct{}, window)
		var done func(*wire.Response, time.Duration, error)
		done = func(_ *wire.Response, _ time.Duration, err error) {
			if err != nil {
				failed.Add(1)
			}
			if n := issued.Add(1); n <= int64(b.N) {
				eng.QueryAsync(srcIP, qs[n%window], done)
			} else {
				finished <- struct{}{}
			}
		}
		if _, _, err := eng.Query(srcIP, qs[0]); err != nil { // dial, warm the pools
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < window; i++ {
			done(nil, 0, nil)
		}
		for i := 0; i < window; i++ {
			<-finished
		}
		b.StopTimer()
		if failed.Load() != 0 {
			b.Fatalf("%d queries failed", failed.Load())
		}
	})

	b.Run("scoped-miss", func(b *testing.B) {
		srcIP, dstIP := netaddr.MustParseIP("10.4.5.1"), netaddr.MustParseIP("10.4.5.2")
		serve := func(h *hostinfo.Host) string {
			srv := daemon.NewServer(daemon.New(h))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			return addr.String()
		}
		server := hostinfo.New("server", dstIP, 2)
		bob := server.AddUser("bob", "users")
		if err := server.Listen(server.Exec(bob, workload.Skype.Exe()).PID, netaddr.ProtoTCP, 5060); err != nil {
			b.Fatal(err)
		}
		client := hostinfo.New("pc", srcIP, 1)
		proc := client.Exec(client.AddUser("alice", "users"), workload.Skype.Exe())
		const window = 256
		evs := make([]openflow.PacketIn, window)
		for i := range evs {
			five, err := client.Connect(proc.PID, flow.Five{DstIP: dstIP, Proto: netaddr.ProtoTCP, DstPort: 5060})
			if err != nil {
				b.Fatal(err)
			}
			evs[i] = m8Event(srcIP, dstIP)
			evs[i].Tuple.SrcPort, evs[i].Tuple.DstPort = five.SrcPort, five.DstPort
		}
		pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{srcIP: serve(client), dstIP: serve(server)}})
		b.Cleanup(func() { pool.Close() })
		eng := query.NewEngine(query.Config{Lower: pool})
		b.Cleanup(eng.Close)
		ctl := eng.Controller(core.Config{
			Name:     "m9",
			Policy:   pf.MustCompile("m9", "block all\npass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)"),
			Topology: &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		// A decision finishes on the pool's reader. decided waits until n
		// flows are allowed and no decision holds its flow (a pass counts
		// before its decision releases the flow): a flow is asked again
		// only once its last decision is done, so every op is a fresh
		// miss, never a duplicate.
		allowed := ctl.Counters.Cell("flows_allowed")
		idle := func() bool {
			for _, s := range ctl.ShardStats() {
				if s.Pending > 0 {
					return false
				}
			}
			return true
		}
		decided := func(n int) {
			deadline := time.Now().Add(5 * time.Second)
			for allowed.Load() < int64(n) || !idle() {
				if time.Now().After(deadline) {
					b.Fatalf("%d of %d misses allowed", allowed.Load(), n)
				}
				runtime.Gosched()
			}
		}
		ctl.HandleEvent(evs[0]) // learn the listener's answer
		decided(1)
		for i := 1; i < window; i++ { // warm the pools and the index
			ctl.HandleEvent(evs[i])
		}
		decided(window)
		sent := pool.Counters.Get("pool_queries_sent")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%window == 0 {
				decided(window + i)
			}
			ctl.HandleEvent(evs[i%window])
		}
		decided(window + b.N)
		b.StopTimer()
		if q := pool.Counters.Get("pool_queries_sent") - sent; q != int64(b.N) {
			b.Fatalf("%d wire queries for %d misses, want one each", q, b.N)
		}
		if got := allowed.Load(); got != int64(window+b.N) {
			b.Fatalf("%d flows allowed, want %d", got, window+b.N)
		}
	})

	b.Run("daemon-down", func(b *testing.B) {
		// A host that resolves to a dead port: a refused dial, then the
		// backoff window answers until it passes (50 ms, doubling to 2 s).
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		deadAddr := l.Addr().String()
		l.Close()
		downIP := netaddr.MustParseIP("10.4.3.1")
		pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{downIP: deadAddr}})
		b.Cleanup(func() { pool.Close() })
		eng := query.NewEngine(query.Config{Lower: pool})
		b.Cleanup(eng.Close)
		q := wire.Query{Flow: flow.Five{
			SrcIP: downIP, DstIP: netaddr.MustParseIP("10.4.3.2"),
			Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 631,
		}}
		eng.Query(downIP, q) // pay the one refused dial up front
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Query(downIP, q); err == nil {
				b.Fatal("dead host answered")
			}
		}
		b.StopTimer()
		// Every query but those that waited on a redial (the warm-up's
		// refused dial included) was failed from the window.
		fastfails := pool.Counters.Get("pool_dial_backoff_fastfails")
		if redials := pool.Counters.Get("pool_dial_errors") - 1; fastfails+redials != int64(b.N) {
			b.Fatalf("%d of %d queries failed from the backoff window (%d redials)", fastfails, b.N, redials)
		}
	})
}

// m10Policy builds a mixed synthetic policy for the compiler benchmarks:
// a deny-all opener, `rules` port-scoped key-dependent rules (none of
// which header-match the benchmark flows), one pure header rule, and one
// key-dependent rule the key flow hits. Header-only flows aim at the
// header rule's port; key flows at the key rule's.
func m10Policy(rules int) *pf.Policy {
	var sb []byte
	sb = append(sb, "block all\n"...)
	for i := 0; i < rules; i++ {
		sb = append(sb, ("pass from any to any port " + itoa(20000+i%5000) + " with eq(@src[name], app" + itoa(i) + ")\n")...)
	}
	sb = append(sb, "pass from 10.0.0.0/8 to any port 80 keep state\n"...)
	sb = append(sb, "pass from any to any port 443 with eq(@src[name], web) with eq(@dst[name], httpd)\n"...)
	return pf.MustCompile("m10", string(sb))
}

// BenchmarkM10_PolicyEval measures PF+=2 decision cost across policy
// sizes and the two flow classes the compiler distinguishes:
//
//   - keys: the flow hits the key-dependent rule and evaluation reads
//     both responses — the classic decision.
//   - headeronly: the flow is decidable from the header alone, and the
//     controller runs only the Prepass, skipping the query plane entirely.
//
// Every variant is named compiled/… (the tree-walking interpreter they
// were once priced against is a test-only oracle in internal/pf now).
// CI's bench-compare gates them at ≤ 2 allocs/op (they measure 0): the
// steady-state decision path must never regress into allocating. A third size, fence/2000 (benchmarkM10Fence), is the
// end-to-end benchmark's policy_large policy.
func BenchmarkM10_PolicyEval(b *testing.B) {
	for _, size := range []struct {
		name  string
		rules int
	}{{"small", 8}, {"large", 500}} {
		p := m10Policy(size.rules)
		prog := p.Program()

		keyFlow := flow.Five{
			SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
			Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 443,
		}
		src := wire.NewResponse(keyFlow)
		src.Add(wire.KeyName, "web")
		dst := wire.NewResponse(keyFlow)
		dst.Add(wire.KeyName, "httpd")
		keyIn := pf.Input{Flow: keyFlow, Src: src, Dst: dst}

		headerFlow := keyFlow
		headerFlow.DstPort = 80

		b.Run("compiled/"+size.name+"/keys", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := p.Evaluate(keyIn); d.Action != pf.Pass {
					b.Fatal("wrong decision")
				}
			}
		})
		b.Run("compiled/"+size.name+"/headeronly", func(b *testing.B) {
			// The controller's actual header-only path: Prepass decides and
			// yields the hints, no full evaluation at all.
			srcKeys := make([]string, 0, 16)
			dstKeys := make([]string, 0, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, ok, s2, d2 := prog.Prepass(headerFlow, srcKeys[:0], dstKeys[:0])
				if !ok || d.Action != pf.Pass {
					b.Fatal("flow should be header-only decidable")
				}
				srcKeys, dstKeys = s2, d2
			}
		})
	}
	benchmarkM10Fence(b)
}

// m10FenceSource is the end-to-end benchmark's policy_large policy
// (bench/identxx-e2e, largePolicy) at n rules: every rule but the last
// fences off one (source host, destination port) pair no benchmark flow
// carries, and the last is the only one the flows match — so a decision
// that scans the ruleset pays for all of it.
func m10FenceSource(n int) string {
	sb := []byte("table <lan> { 10.0.0.0/16 }\nblock all\n")
	for i := 0; i < n-2; i++ {
		sb = append(sb, ("block from 172.16." + itoa(i/250) + "." + itoa(i%250+1) + " to any port " + itoa(20000+i) + "\n")...)
	}
	sb = append(sb, "pass from <lan> to <lan> port 5060-5063 keep state\n"...)
	return string(sb)
}

// m10FenceRules is policy_large's size.
const m10FenceRules = 2000

// BenchmarkM10_PolicyEval/…/fence/2000 is the shape the end-to-end run's
// policy_large workload decides on, priced alone: the header-only
// pre-pass the controller actually runs and a full evaluation. Both sit
// under the same ≤ 2 allocs/op gate as the other sizes.
func benchmarkM10Fence(b *testing.B) {
	p := pf.MustCompile("m10-fence", m10FenceSource(m10FenceRules))
	prog := p.Program()
	f := flow.Five{
		SrcIP: netaddr.MustParseIP("10.0.1.1"), DstIP: netaddr.MustParseIP("10.0.1.2"),
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 5060,
	}
	in := pf.Input{Flow: f}
	size := "fence/" + itoa(m10FenceRules)
	b.Run("compiled/"+size+"/prepass", func(b *testing.B) {
		srcKeys := make([]string, 0, 16)
		dstKeys := make([]string, 0, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, ok, s2, d2 := prog.Prepass(f, srcKeys[:0], dstKeys[:0])
			if !ok || d.Action != pf.Pass {
				b.Fatal("flow should be header-only decidable")
			}
			srcKeys, dstKeys = s2, d2
		}
	})
	b.Run("compiled/"+size+"/eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d := p.Evaluate(in); d.Action != pf.Pass {
				b.Fatal("wrong decision")
			}
		}
	})
}

// BenchmarkM10_Compile prices a policy load at policy_large's size: parse,
// resolve, lower and build the dispatch index — what the end-to-end run
// reports as pf.compile_ms and what every SetPolicy pays once.
func BenchmarkM10_Compile(b *testing.B) {
	src := m10FenceSource(m10FenceRules)
	b.Run(itoa(m10FenceRules), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			file, err := pf.Parse("m10-fence", src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pf.Compile(file); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkM11_Revocation measures the revocation plane (PR 5):
//
//   - no-subscribers: the M8 cache-hit path with no updates arriving — the proof that adopting the plane costs the
//     packet-in hot path nothing. Carries the same ≤ 2 allocs/op budget as
//     M8/M9-hit in the CI bench-compare gate (measures 0).
//   - teardown: one full revocation cycle per op — decide+install a flow,
//     then a flow-scoped endpoint-state update tears it down (cache drop,
//     index unlink, path deletes). 1/ns-op is flows-torn-down/sec. The
//     update's side builds nothing (its teardown label is built once per
//     key); what the op allocates is the decision's, the in-process
//     transport's answers included, and CI gates it at 8.
//   - fanin-64: one key-scoped update revokes 64 dependent flows through
//     the fact-dependency index; flows_torn_per_op reports the fan-in.
//   - update-wire: the update path end to end — a process's exit makes a
//     real daemon.Server push one flow-scoped update per flow of it over a
//     real query.Pool into Controller.HandleUpdate; half tear down a
//     registered flow, half find nothing (the no-op share under churn).
//     The op is one update, daemon's side included: the reader decodes it
//     in place and each key and value was seen before, so CI gates it at
//     0 allocs/op.
//   - register-drop: the index alone, at a steady 4096 live flow records
//     over 16 hosts in the controller's five-fact shape (both markers,
//     name and version at the source, name at the destination): per op one
//     record is dropped and registered again, what every uncached miss and
//     its flow-removed cost. The dropped record is the next one registered,
//     so CI gates it at 0 allocs/op.
func BenchmarkM11_Revocation(b *testing.B) {
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	mkCtl := func(shards int) *core.Controller {
		tr := &m7Transport{responses: map[netaddr.IP]map[string]string{
			srcIP: {"name": "skype"},
			dstIP: {"name": "skype"},
		}}
		ctl := core.New(core.Config{
			Name:             "m11",
			Policy:           pf.MustCompile("m11", m8Policy),
			Transport:        tr,
			Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
			ResponseCacheTTL: time.Hour,
			Shards:           shards,
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		return ctl
	}
	flowAt := func(sp int) flow.Five {
		return flow.Five{SrcIP: srcIP, DstIP: dstIP, Proto: netaddr.ProtoTCP,
			SrcPort: netaddr.Port(sp), DstPort: 80}
	}
	eventAt := func(sp int) openflow.PacketIn {
		ev := m8Event(srcIP, dstIP)
		ev.Tuple.SrcPort = netaddr.Port(sp)
		return ev
	}

	b.Run("no-subscribers", func(b *testing.B) {
		ctl := mkCtl(0)
		ev := m8Event(srcIP, dstIP)
		ctl.HandleEvent(ev) // warm cache, pools, and the one registration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
		b.StopTimer()
		if ctl.Counters.Get("megaflow_hits") < int64(b.N) {
			b.Fatal("cache-hit path not exercised")
		}
	})

	b.Run("teardown", func(b *testing.B) {
		ctl := mkCtl(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := 1 + i%30000
			ctl.HandleEvent(eventAt(sp))
			ctl.HandleUpdate(srcIP, wire.Update{Flow: flowAt(sp), Key: "name", Serial: uint64(i + 1)})
		}
		b.StopTimer()
		if got := ctl.Counters.Get("revocations_flows"); got < int64(b.N) {
			b.Fatalf("revocations_flows = %d, want >= %d", got, b.N)
		}
	})

	b.Run("fanin-64", func(b *testing.B) {
		const fan = 64
		ctl := mkCtl(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < fan; j++ {
				ctl.HandleEvent(eventAt(1 + j))
			}
			ctl.HandleUpdate(srcIP, wire.Update{Key: "name", Serial: uint64(i + 1)})
		}
		b.StopTimer()
		b.ReportMetric(float64(ctl.Counters.Get("revocations_flows"))/float64(b.N), "flows_torn_per_op")
		if got := ctl.Counters.Get("revocations_flows"); got < int64(b.N)*fan {
			b.Fatalf("revocations_flows = %d, want >= %d", got, int64(b.N)*fan)
		}
	})

	b.Run("update-wire", func(b *testing.B) {
		// A client host whose daemon serves on loopback, and a controller
		// without a verdict cache (revoke_churn's configuration) subscribed
		// to it through a real Pool. Its decisions are answered by the
		// in-process transport; only the updates cross the wire.
		clientIP := netaddr.MustParseIP("10.4.6.1")
		client := hostinfo.New("pc", clientIP, 1)
		alice := client.AddUser("alice", "users")
		srv := daemon.NewServer(daemon.New(client))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{clientIP: addr.String()}})
		b.Cleanup(func() { pool.Close() })
		ctl := core.New(core.Config{
			Name:   "m11",
			Policy: pf.MustCompile("m11", m8Policy),
			Transport: &m7Transport{responses: map[netaddr.IP]map[string]string{
				clientIP: {"name": "skype"},
				dstIP:    {"name": "skype"},
			}},
			Topology: &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		var arrived atomic.Int64
		pool.SetUpdateHandler(func(host netaddr.IP, u wire.Update) {
			ctl.HandleUpdate(host, u)
			if !u.Hello {
				arrived.Add(1)
			}
		})
		await := func(n int64) {
			deadline := time.Now().Add(5 * time.Second)
			for arrived.Load() < n {
				if time.Now().After(deadline) {
					b.Fatalf("%d of %d updates arrived", arrived.Load(), n)
				}
				runtime.Gosched()
			}
		}
		// Each round connects a process's flows — the daemon answering each
		// once, the controller deciding every other one — and kills the
		// process: one update per flow, of which half tear down a
		// registered flow and half find nothing. Only the kill is timed.
		const round = 1024
		flows := make([]flow.Five, round)
		want := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += round {
			b.StopTimer()
			n := min(round, b.N-done)
			proc := client.Exec(alice, workload.Skype.Exe())
			for i := range flows[:n] {
				f, err := client.Connect(proc.PID, flow.Five{DstIP: dstIP, Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(1024 + i), DstPort: 80})
				if err != nil {
					b.Fatal(err)
				}
				flows[i] = f
				if done == 0 {
					// The daemon publishes changes to what it has answered:
					// ask once. Later rounds reconnect flows it still
					// remembers, and each reconnect is an update of its own.
					if _, _, err := pool.Query(clientIP, wire.Query{Flow: f}); err != nil {
						b.Fatal(err)
					}
				} else {
					want++
				}
			}
			await(want)
			for i := 0; i < n; i += 2 {
				ev := m8Event(clientIP, dstIP)
				ev.Tuple.SrcPort = flows[i].SrcPort
				ctl.HandleEvent(ev)
			}
			if live, _, _ := ctl.RevocationIndexStats(); live != (n+1)/2 {
				b.Fatalf("%d flows registered, want %d", live, (n+1)/2)
			}
			want += int64(n)
			b.StartTimer()
			client.Kill(proc.PID)
			await(want)
		}
		b.StopTimer()
		if live, _, _ := ctl.RevocationIndexStats(); live != 0 {
			b.Fatalf("%d flows still registered after every kill", live)
		}
		if torn, noop := ctl.Counters.Get("revocations_flows"), ctl.Counters.Get("revocations_noop"); torn != int64(b.N+1)/2 || noop < int64(b.N)/2 {
			b.Fatalf("%d flows torn down and %d no-op updates, want %d and at least %d", torn, noop, (b.N+1)/2, b.N/2)
		}
	})

	b.Run("register-drop", func(b *testing.B) {
		const live, hosts = 4096, 16
		host := func(i int) netaddr.IP { return netaddr.IP(0x0a000001 + uint32(i%hosts)) }
		ix := revoke.NewIndex(0)
		regs := make([]revoke.Registration, live)
		for i := range regs {
			src, dst := host(i), host(i+1)
			regs[i] = revoke.Registration{
				Flow: flow.Five{SrcIP: src, DstIP: dst, Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(1024 + i), DstPort: 80},
				Facts: []revoke.Fact{
					{Host: src}, {Host: src, Key: wire.KeyName}, {Host: src, Key: wire.KeyVersion},
					{Host: dst}, {Host: dst, Key: wire.KeyName},
				},
				Paths: []uint64{1},
			}
			ix.Register(regs[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := &regs[i%live]
			if _, ok := ix.Drop(r.Flow); !ok {
				b.Fatal("a live record was not registered")
			}
			ix.Register(*r)
		}
		b.StopTimer()
		if n, _, _ := ix.Stats(); n != live {
			b.Fatalf("%d live records, want %d", n, live)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// m12Policy reads endpoint state from the destination only, so the
// field-use trace masks SrcIP/SrcPort away and every client of the
// service lands in one traffic equivalence class.
const m12Policy = "block all\npass from any to any port 5060 with eq(@dst[name], skype)"

// m12Event is one member of the M12 class: fixed service tuple, varying
// source port.
func m12Event(srcIP, dstIP netaddr.IP, sp int) openflow.PacketIn {
	return openflow.PacketIn{
		SwitchID: 1, BufferID: openflow.BufferNone, InPort: 1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   srcIP, DstIP: dstIP, Proto: netaddr.ProtoTCP,
			SrcPort: netaddr.Port(10000 + sp), DstPort: 5060,
		},
	}
}

// BenchmarkM12_Megaflow measures the megaflow wildcard cache (PR 6):
//
//   - member-hit: steady-state decision cost for flows inside an
//     already-widened class, cycling 512 distinct source ports — one
//     class-table probe instead of query+eval, and no entry per
//     member. CI enforces ≤ 2 allocs/op on this path.
//   - exact-baseline: the same 512-tuple workload with Config.Megaflow
//     off — every distinct tuple pays one full decision, then hits its
//     own full-mask entry; the per-tuple footprint widening removes.
//   - widen-install: the founder path — traced evaluation plus class
//     insert and wide registration — against the plain decision above.
func BenchmarkM12_Megaflow(b *testing.B) {
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	mkCtl := func(mega bool) *core.Controller {
		tr := &m7Transport{responses: map[netaddr.IP]map[string]string{
			srcIP: {"name": "skype"},
			dstIP: {"name": "skype"},
		}}
		ctl := core.New(core.Config{
			Name:             "m12",
			Policy:           pf.MustCompile("m12", m12Policy),
			Transport:        tr,
			Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
			ResponseCacheTTL: time.Hour,
			Megaflow:         mega,
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		return ctl
	}
	eventAt := func(sp int) openflow.PacketIn { return m12Event(srcIP, dstIP, sp) }
	const class = 512

	b.Run("member-hit", func(b *testing.B) {
		ctl := mkCtl(true)
		for i := 0; i < class; i++ { // founder + one warm lap
			ctl.HandleEvent(eventAt(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(eventAt(i % class))
		}
		b.StopTimer()
		if _, hits, _, _ := ctl.MegaflowStats(); hits < int64(b.N) {
			b.Fatalf("megaflow hits = %d, want >= %d", hits, b.N)
		}
	})

	b.Run("exact-baseline", func(b *testing.B) {
		ctl := mkCtl(false)
		for i := 0; i < class; i++ {
			ctl.HandleEvent(eventAt(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(eventAt(i % class))
		}
	})

	b.Run("widen-install", func(b *testing.B) {
		ctl := mkCtl(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(eventAt(i % class))
			if i%class == class-1 {
				b.StopTimer()
				ctl.SetPolicy(pf.MustCompile("m12", m12Policy)) // flush: next lap re-widens
				b.StartTimer()
			}
		}
	})
}

// m13Host is m9Host returning the daemon too, so credential-plane
// benchmarks can install and rotate credentials on it.
func m13Host(b *testing.B, name, ip string) (netaddr.IP, string, flow.Five, *daemon.Daemon) {
	b.Helper()
	hostIP := netaddr.MustParseIP(ip)
	h := hostinfo.New(name, hostIP, 1)
	alice := h.AddUser("alice", "users")
	proc := h.Exec(alice, workload.Skype.Exe())
	five, err := h.Connect(proc.PID, flow.Five{
		DstIP: netaddr.MustParseIP("10.4.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := daemon.New(h)
	srv := daemon.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return hostIP, addr.String(), five, d
}

// BenchmarkM13_CredentialedSession measures the credential plane (PR 8):
//
//   - hello-verify: the once-per-session price — parse the credential
//     blob, check the authority signature, check the hello transcript
//     signature. This is ~two Ed25519 verifications and is paid exactly
//     once per daemon session (and once per rotation re-hello), never per
//     query.
//   - steady: the controller's steady state over a fully credentialed
//     query plane (both daemons verified) with a warm
//     verdict cache. The credential plane must cost this path nothing:
//     CI enforces the same ≤ 2 allocs/op budget as the insecure M9 hit
//     variant, and the subtest asserts no re-verification happened during
//     the timed loop.
func BenchmarkM13_CredentialedSession(b *testing.B) {
	authPub, authPriv := sig.MustGenerateKey()

	b.Run("hello-verify", func(b *testing.B) {
		host := netaddr.MustParseIP("10.4.2.1")
		ic, err := cred.Issue(authPriv, host, nil, time.Now().Add(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		blob := ic.Encode()
		helloSig := ic.SignHello(host, 7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := cred.Parse(blob)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Verify(authPub, time.Now()); err != nil {
				b.Fatal(err)
			}
			if err := c.VerifyHello(host, 7, helloSig); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("steady", func(b *testing.B) {
		srcIP, srcAddr, five, srcD := m13Host(b, "pc", "10.4.0.1")
		dstIP, dstAddr, _, dstD := m13Host(b, "server", "10.4.0.2")
		issue := func(d *daemon.Daemon, host netaddr.IP) {
			ic, err := cred.Issue(authPriv, host, nil, time.Now().Add(time.Hour))
			if err != nil {
				b.Fatal(err)
			}
			d.SetCredential(ic)
		}
		issue(srcD, srcIP)
		issue(dstD, dstIP)
		pool := query.NewPool(query.PoolConfig{
			Resolver:     query.StaticResolver{srcIP: srcAddr, dstIP: dstAddr},
			AuthorityKey: authPub,
		})
		b.Cleanup(func() { pool.Close() })
		eng := query.NewEngine(query.Config{Lower: pool})
		b.Cleanup(eng.Close)
		ctl := core.New(core.Config{
			Name:             "m13",
			Policy:           pf.MustCompile("m13", "block all\npass from any to any with eq(@src[name], skype)"),
			Transport:        eng,
			Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
			ResponseCacheTTL: time.Hour,
		})
		ctl.AddDatapath(&m7Datapath{id: 1})
		ev := openflow.PacketIn{
			SwitchID: 1, BufferID: openflow.BufferNone, InPort: 1,
			Tuple: flow.Ten{
				EthType: flow.EthTypeIPv4,
				SrcIP:   five.SrcIP, DstIP: five.DstIP, Proto: five.Proto,
				SrcPort: five.SrcPort, DstPort: five.DstPort,
			},
		}
		ctl.HandleEvent(ev) // decide once: hellos verify, cache warms
		deadline := time.Now().Add(5 * time.Second)
		for ctl.Counters.Get("flows_allowed") == 0 || pool.Counters.Get("pool_cred_verified") < 2 {
			if time.Now().After(deadline) {
				b.Fatal("credentialed warm-up never completed")
			}
			time.Sleep(time.Millisecond)
		}
		verifiedBefore := pool.Counters.Get("pool_cred_verified")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
		b.StopTimer()
		if ctl.Counters.Get("megaflow_hits") < int64(b.N) {
			b.Fatal("cache-hit path not exercised")
		}
		if got := pool.Counters.Get("pool_cred_verified"); got != verifiedBefore {
			b.Fatalf("re-verified during steady state (%d -> %d): crypto leaked onto the hot path", verifiedBefore, got)
		}
		if ctl.Counters.Get("cred_unauthorized") != 0 {
			b.Fatal("credentialed session rejected during steady state")
		}
	})
}

// m14Replica is one in-process controller replica for the cluster
// benchmarks: the M8 steady-state configuration (warmable verdict cache,
// entries installed at a sink datapath).
func m14Replica(name string) *core.Controller {
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	ctl := core.New(core.Config{
		Name:   name,
		Policy: pf.MustCompile(name, m8Policy),
		Transport: &m7Transport{responses: map[netaddr.IP]map[string]string{
			srcIP: {"name": "skype"},
			dstIP: {"name": "skype"},
		}},
		Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
	})
	ctl.AddDatapath(&m7Datapath{id: 1})
	return ctl
}

// m14Event is m8Event with a chosen source port (the ownership hash keys
// on the 5-tuple, so ports steer flows between replicas).
func m14Event(port netaddr.Port) openflow.PacketIn {
	ev := m8Event(netaddr.MustParseIP("10.0.0.1"), netaddr.MustParseIP("10.0.0.2"))
	ev.Tuple.SrcPort = port
	return ev
}

// BenchmarkM14_Cluster prices the consistent-hash ownership layer
// (internal/cluster) in front of the controller:
//
//   - owned-hit: the M8 cache-hit fast path through the Router for a flow
//     this replica owns — one ring lookup of added work. Carries the same
//     ≤ 2 allocs/op budget as M8/M9-hit (CI gates it): single-replica
//     deployments must not pay for the cluster layer.
//   - forwarded: a non-owned flow handed to its owner over an in-process
//     link and decided there — the per-event price of getting ownership
//     wrong at the ingress switch (wire cost excluded; see the query-plane
//     benchmarks for socket round-trip pricing).
//   - rebalance: a full ring rebuild — membership swap, and on every
//     second one the departing member's takeover: one delete by its
//     installer tag per switch (here one in-process switch holding 256
//     of this replica's entries, which the delete must leave alone).
//   - aggregate/replicas=N: total decision throughput of N in-process
//     replicas each decides its owned slice of a warmed flow population.
//     On a multi-core runner this is the scale-out headline (4 replicas
//     ≥ 3x one); on a single-core runner it reports the ownership layer's
//     overhead instead, since the replicas share the core.
func BenchmarkM14_Cluster(b *testing.B) {
	b.Run("owned-hit", func(b *testing.B) {
		rt := cluster.NewRouter(m14Replica("r1"), cluster.Member{ID: "r1"}, cluster.Options{})
		ev := m14Event(40000) // single-member ring: every flow is owned
		rt.HandleEvent(ev)    // warm the cache and the pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.HandleEvent(ev)
		}
		b.StopTimer()
		if rt.Counters.Get("cluster_events_owned") < int64(b.N) {
			b.Fatal("events did not take the owned path")
		}
	})

	b.Run("forwarded", func(b *testing.B) {
		var ra, rb *cluster.Router
		ra = cluster.NewRouter(m14Replica("r1"), cluster.Member{ID: "r1"}, cluster.Options{
			Dial: func(m cluster.Member) (cluster.Link, error) { return cluster.Loopback{Peer: rb}, nil },
		})
		rb = cluster.NewRouter(m14Replica("r2"), cluster.Member{ID: "r2"}, cluster.Options{
			Dial: func(m cluster.Member) (cluster.Link, error) { return cluster.Loopback{Peer: ra}, nil },
		})
		members := []cluster.Member{{ID: "r1"}, {ID: "r2"}}
		if err := ra.SetMembers(members); err != nil {
			b.Fatal(err)
		}
		if err := rb.SetMembers(members); err != nil {
			b.Fatal(err)
		}
		ev := m14Event(40000)
		for p := netaddr.Port(40000); ra.Owns(ev.Tuple.Five()); p++ {
			ev = m14Event(p)
		}
		ra.HandleEvent(ev) // warm the owner's cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ra.HandleEvent(ev)
		}
		b.StopTimer()
		if rb.Counters.Get("cluster_events_received") < int64(b.N) {
			b.Fatal("events were not forwarded to the owner")
		}
	})

	b.Run("rebalance", func(b *testing.B) {
		ctl := m14Replica("r1")
		sw := openflow.NewSwitch(1, "s1", 0)
		ctl.AddDatapath(sw)
		for p := netaddr.Port(0); p < 256; p++ {
			ctl.HandleEvent(m14Event(40000 + p))
		}
		var rt *cluster.Router
		rt = cluster.NewRouter(ctl, cluster.Member{ID: "r1"}, cluster.Options{
			Dial: func(m cluster.Member) (cluster.Link, error) { return cluster.Loopback{Peer: rt}, nil },
		})
		one := []cluster.Member{{ID: "r1"}}
		two := []cluster.Member{{ID: "r1"}, {ID: "r2"}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				rt.SetMembers(two)
			} else {
				rt.SetMembers(one)
			}
		}
	})

	for _, replicas := range []int{1, 2, 4} {
		b.Run("aggregate/replicas="+itoa(replicas), func(b *testing.B) {
			members := make([]cluster.Member, replicas)
			for i := range members {
				members[i] = cluster.Member{ID: "r" + itoa(i)}
			}
			rts := make([]*cluster.Router, replicas)
			for i := range rts {
				i := i
				rts[i] = cluster.NewRouter(m14Replica(members[i].ID), members[i], cluster.Options{
					// Peers are never consulted: each goroutine drives only
					// events its replica owns.
					Dial: func(m cluster.Member) (cluster.Link, error) { return cluster.Loopback{Peer: rts[i]}, nil },
				})
			}
			for _, rt := range rts {
				if err := rt.SetMembers(members); err != nil {
					b.Fatal(err)
				}
			}
			// Per-replica owned, warmed working sets.
			const working = 64
			events := make([][]openflow.PacketIn, replicas)
			for p := netaddr.Port(40000); ; p++ {
				ev := m14Event(p)
				for i, rt := range rts {
					if rt.Owns(ev.Tuple.Five()) && len(events[i]) < working {
						rt.HandleEvent(ev)
						events[i] = append(events[i], ev)
					}
				}
				done := 0
				for i := range events {
					if len(events[i]) == working {
						done++
					}
				}
				if done == replicas {
					break
				}
			}
			var gid atomic.Uint32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := int(gid.Add(1)) % replicas
				rt, evs := rts[r], events[r]
				i := 0
				for pb.Next() {
					rt.HandleEvent(evs[i%working])
					i++
				}
			})
			b.StopTimer()
			var fwd int64
			for _, rt := range rts {
				fwd += rt.Counters.Get("cluster_events_forwarded")
			}
			if fwd != 0 {
				b.Fatalf("%d events left their replica (owned sets wrong)", fwd)
			}
		})
	}
}

// m15Controller builds the M8 cache-hit controller with an optional
// flight recorder attached, the configuration the M15 benchmark prices.
func m15Controller(rec *trace.Recorder) (*core.Controller, openflow.PacketIn) {
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	tr := &m7Transport{responses: map[netaddr.IP]map[string]string{
		srcIP: {"name": "skype"},
		dstIP: {"name": "skype"},
	}}
	ctl := core.New(core.Config{
		Name:             "m15",
		Policy:           pf.MustCompile("m15", m8Policy),
		Transport:        tr,
		Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
		Trace:            rec,
	})
	ctl.AddDatapath(&m7Datapath{id: 1})
	ev := m8Event(srcIP, dstIP)
	ctl.HandleEvent(ev) // warm the cache and the pools
	return ctl, ev
}

// BenchmarkM15_Trace prices the flight recorder (PR 10) on the M8
// cache-hit path at its three operating points:
//
//   - off: no recorder configured. This is the default, and CI's
//     bench-compare job gates it at the same ≤ 2 allocs/op budget as M8 —
//     tracing must cost nothing when nobody asked for it.
//   - sampled: recorder on with 1-in-1024 retention, the recommended
//     production setting. Every decision pays the buffer checkout and the
//     per-stage event stores; 1 in 1024 pays the retention copy.
//   - always: SampleEvery 1, every decision retained — the ceiling.
func BenchmarkM15_Trace(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		ctl, ev := m15Controller(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		rec := trace.New(trace.Config{SampleEvery: 1024})
		ctl, ev := m15Controller(rec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
	})
	b.Run("always", func(b *testing.B) {
		rec := trace.New(trace.Config{SampleEvery: 1})
		ctl, ev := m15Controller(rec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.HandleEvent(ev)
		}
		b.StopTimer()
		if rec.Counters.Get("trace_sampled") == 0 {
			b.Fatal("no traces retained on the always path")
		}
	})
}

// m16Conn counts the Reads and Writes the controller's end of a switch
// channel issues: each is one syscall (a Read that has to wait is two).
type m16Conn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c m16Conn) Read(p []byte) (int, error)  { c.reads.Add(1); return c.Conn.Read(p) }
func (c m16Conn) Write(p []byte) (int, error) { c.writes.Add(1); return c.Conn.Write(p) }

type m16Listener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *m16Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return m16Conn{conn, &l.reads, &l.writes}, nil
}

// m16Handler decides every packet-in at once with one flow-mod, so the
// benchmark prices the channel and nothing behind it. Its one switch is
// registered and punts on the same reader goroutine.
type m16Handler struct {
	mod openflow.FlowMod
	dp  openflow.Datapath
}

func (h *m16Handler) AddDatapath(dp openflow.Datapath)       { h.dp = dp }
func (h *m16Handler) RemoveDatapath(openflow.Datapath) bool  { return true }
func (h *m16Handler) HandleFlowRemoved(openflow.FlowRemoved) {}
func (h *m16Handler) HandleEvent(ev openflow.PacketIn) {
	mod := h.mod
	mod.BufferID = ev.BufferID
	h.dp.Apply(mod)
}

// BenchmarkM16_ChannelIO prices the switch channel's I/O alone: a real
// ChannelServer over loopback TCP against a peer that keeps 1 or 32
// packet-ins outstanding (the two windows of the end-to-end benchmark),
// sending the next when a flow-mod comes back. It reports what the
// controller's end of the socket did per decision. With one outstanding a
// decision cannot cost less than one read and one write; with 32 the reads
// and writes of a burst are shared, and writes/decision and reads/decision
// fall well under one (PR 14: from 2 writes per flow-mod at any window).
// allocs/op covers both ends: the peer's ReadMsg (header and body); the
// server reads every message into one reused buffer.
// Run with -cpu 1,2,4: the writer goroutine's hand-off is what -cpu moves.
func BenchmarkM16_ChannelIO(b *testing.B) {
	five := flow.Five{
		SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80,
	}
	frame := packet.TCPFrame(netaddr.MAC(1), netaddr.MAC(2), five, 0x02, nil)
	pin, err := openflow.AppendPacketIn(nil, openflow.PacketIn{SwitchID: 1, BufferID: 7, InPort: 1, Frame: frame}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []int{1, 32} {
		b.Run("outstanding="+itoa(window), func(b *testing.B) {
			tcp, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			l := &m16Listener{Listener: tcp}
			srv := openflow.NewChannelServer(&m16Handler{mod: openflow.FlowMod{
				Match: flow.FiveMatch(five), Priority: 100, Actions: openflow.Output(2), IdleTimeout: time.Minute,
			}})
			srv.Serve(l)
			defer srv.Close()
			conn, err := net.Dial("tcp", tcp.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close() // before srv.Close, which waits for the channel to end
			if err := openflow.WriteMsg(conn, openflow.Msg{Type: openflow.MsgHello, Body: make([]byte, 8)}); err != nil {
				b.Fatal(err)
			}
			br := bufio.NewReaderSize(conn, 64<<10)
			if m, err := openflow.ReadMsg(br); err != nil || m.Type != openflow.MsgHello {
				b.Fatalf("hello reply: %v", err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			reads, writes := l.reads.Load(), l.writes.Load()
			sent := min(window, b.N)
			if _, err := conn.Write(bytes.Repeat(pin, sent)); err != nil {
				b.Fatal(err)
			}
			for got := 0; got < b.N; got++ {
				m, err := openflow.ReadMsg(br)
				if err != nil || m.Type != openflow.MsgFlowMod {
					b.Fatalf("decision %d: type %d, %v", got, m.Type, err)
				}
				if sent < b.N {
					if _, err := conn.Write(pin); err != nil {
						b.Fatal(err)
					}
					sent++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(l.reads.Load()-reads)/float64(b.N), "reads/decision")
			b.ReportMetric(float64(l.writes.Load()-writes)/float64(b.N), "writes/decision")
		})
	}
}
