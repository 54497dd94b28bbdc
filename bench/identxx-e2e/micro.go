package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/revoke"
	"identxx/internal/wire"
)

// The traced run ends by timing each layer's public functions on the
// workload's own inputs — its policy, its frames, the responses its daemons
// give — so the spans seen from outside identctl can be attributed across
// the layers inside it.

// microCalls is how often each function is called; the figure is the mean.
const microCalls = 20000

// microFlows is how many flows of the universe the calls cycle through.
const microFlows = 512

// Results are stored here so the compiler cannot drop the timed calls.
var (
	sinkMsg   openflow.Msg
	sinkBytes []byte
	sinkErr   error
	sinkDec   pf.Decision
	sinkFlows []flow.Five
)

// timeCalls runs fn n times and returns the mean time and mallocs per call.
func timeCalls(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// discard is a datapath that accepts everything.
type discard struct{ id uint64 }

func (d discard) DatapathID() uint64         { return d.id }
func (discard) Apply(openflow.FlowMod) error { return nil }
func (discard) PacketOut(uint16, []byte)     {}
func (discard) ReleaseBuffer(uint32)         {}

// benchTopo places hosts the way the generated topology file does: the
// address's third octet is the datapath, the fourth the port.
type benchTopo struct{}

func (benchTopo) Path(_, dst netaddr.IP) ([]core.Hop, error) {
	_, _, c, d := dst.Octets()
	return []core.Hop{{Datapath: uint64(c), OutPort: uint16(d)}}, nil
}

// canned answers queries from responses taken from the daemons beforehand,
// completing inline, so HandleEvent is timed without a network.
type canned map[netaddr.IP]map[flow.Five]*wire.Response

func (c canned) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	return c[host][q.Flow], 0, nil
}

func (c canned) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	done(c[host][q.Flow], 0, nil)
}

// micro times the layers' public functions and adds the results to m.
func (r *rig) micro(m metrics) error {
	u := r.u
	n := min(microFlows, len(u.order[0]))
	idx := u.order[0][:n]

	// Inputs, all taken from the workload: frames, events, flow-mods,
	// queries and the daemons' answers to them.
	type input struct {
		five     flow.Five
		frame    []byte
		ev       openflow.PacketIn
		evMsg    openflow.Msg
		mod      openflow.FlowMod
		modMsg   openflow.Msg
		qSrc     wire.Query
		qPayload []byte
		src, dst *wire.Response
		respWire []byte
	}
	file, err := pf.Parse("50-bench.control", r.w.policy())
	if err != nil {
		return err
	}
	policy, err := pf.Compile(file)
	if err != nil {
		return err
	}
	policy.Default = pf.Block
	prog := policy.Program()
	answers := canned{}
	in := make([]input, n)
	for i, fi := range idx {
		f := &u.flows[fi]
		x := &in[i]
		x.five = f.five
		x.frame = packet.TCPFrame(hostMAC(f.src), hostMAC(f.dst), f.five, 0x02, nil)
		p, err := packet.Decode(x.frame)
		if err != nil {
			return err
		}
		x.ev = openflow.PacketIn{SwitchID: uint64(f.dp + 1), BufferID: uint32(fi), InPort: f.inPort, Frame: x.frame, Tuple: p.Ten(f.inPort)}
		x.evMsg = openflow.EncodePacketIn(x.ev, 1)
		x.mod = openflow.FlowMod{Match: flow.FiveMatch(f.five), Priority: 100, Actions: openflow.Output(hostPort(f.dst)), Cookie: f.five.Hash() | 1, IdleTimeout: time.Minute, BufferID: uint32(fi), NotifyRemoved: true}
		x.modMsg = openflow.EncodeFlowMod(x.mod, 1)
		srcKeys, dstKeys := prog.Hints(f.five, nil, nil)
		x.qSrc = wire.Query{Flow: f.five, Keys: srcKeys}
		x.qPayload = wire.EncodeQuery(x.qSrc)
		x.src = r.daemons[f.src].HandleQuery(x.qSrc)
		x.dst = r.daemons[f.dst].HandleQuery(wire.Query{Flow: f.five, Keys: dstKeys})
		x.respWire = wire.EncodeResponse(x.src)
		for host, resp := range map[netaddr.IP]*wire.Response{f.five.SrcIP: x.src, f.five.DstIP: x.dst} {
			if answers[host] == nil {
				answers[host] = map[flow.Five]*wire.Response{}
			}
			answers[host][f.five] = resp
		}
	}
	at := func(i int) *input { return &in[i%n] }

	m.set("openflow.encode_packet_in_ns", "ns", first(timeCalls(microCalls, func(i int) { sinkMsg = openflow.EncodePacketIn(at(i).ev, 1) })))
	m.set("openflow.decode_packet_in_ns", "ns", first(timeCalls(microCalls, func(i int) { _, sinkErr = openflow.DecodePacketIn(at(i).evMsg) })))
	m.set("openflow.encode_flow_mod_ns", "ns", first(timeCalls(microCalls, func(i int) { sinkMsg = openflow.EncodeFlowMod(at(i).mod, 1) })))
	m.set("openflow.decode_flow_mod_ns", "ns", first(timeCalls(microCalls, func(i int) { _, sinkErr = openflow.DecodeFlowMod(at(i).modMsg) })))
	m.set("packet.decode_ns", "ns", first(timeCalls(microCalls, func(i int) { _, sinkErr = packet.Decode(at(i).frame) })))

	m.set("wire.encode_query_ns", "ns", first(timeCalls(microCalls, func(i int) { sinkBytes = wire.EncodeQuery(at(i).qSrc) })))
	m.set("wire.decode_query_ns", "ns", first(timeCalls(microCalls, func(i int) {
		x := at(i)
		_, sinkErr = wire.DecodeQuery(x.qPayload, x.five.SrcIP, x.five.DstIP)
	})))
	m.set("wire.encode_response_ns", "ns", first(timeCalls(microCalls, func(i int) { sinkBytes = wire.EncodeResponse(at(i).src) })))
	m.set("wire.decode_response_ns", "ns", first(timeCalls(microCalls, func(i int) {
		x := at(i)
		_, sinkErr = wire.DecodeResponse(x.respWire, x.five.SrcIP, x.five.DstIP)
	})))

	ns, allocs := timeCalls(microCalls, func(i int) {
		r.daemons[u.flows[idx[i%n]].src].HandleQuery(at(i).qSrc)
	})
	m.set("daemon.handle_query_ns", "ns", ns)
	m.set("daemon.handle_query_allocs", "count", allocs)

	compileStart := time.Now()
	const compiles = 5
	for i := 0; i < compiles; i++ {
		f, err := pf.Parse("50-bench.control", r.w.policy())
		if err == nil {
			_, err = pf.Compile(f)
		}
		if err != nil {
			return err
		}
	}
	m.set("pf.compile_ms", "ms", float64(time.Since(compileStart).Microseconds())/1000/compiles)
	m.set("pf.eval_ns", "ns", first(timeCalls(microCalls, func(i int) {
		x := at(i)
		sinkDec = policy.Evaluate(pf.Input{Flow: x.five, Src: x.src, Dst: x.dst})
	})))
	var srcKeys, dstKeys []string
	prepass := 0.0
	if prog.MaybeHeaderOnly() {
		prepass, _ = timeCalls(microCalls, func(i int) {
			sinkDec, _, srcKeys, dstKeys = prog.Prepass(at(i).five, srcKeys[:0], dstKeys[:0])
		})
	}
	m.set("pf.prepass_ns", "ns", prepass)
	m.set("pf.hints_ns", "ns", first(timeCalls(microCalls, func(i int) {
		srcKeys, dstKeys = prog.Hints(at(i).five, srcKeys[:0], dstKeys[:0])
	})))

	// The revocation index, with the registration shape the controller uses:
	// the host markers plus one fact per hinted key.
	ix := revoke.NewIndex(0)
	regs := make([]revoke.Registration, n)
	for i := range regs {
		x := &in[i]
		facts := []revoke.Fact{{Host: x.five.SrcIP}, {Host: x.five.DstIP}}
		for _, k := range x.qSrc.Keys {
			facts = append(facts, revoke.Fact{Host: x.five.SrcIP, Key: k})
		}
		regs[i] = revoke.Registration{Flow: x.five, Facts: facts, Paths: []uint64{1}}
	}
	m.set("revoke.register_ns", "ns", first(timeCalls(microCalls, func(i int) { ix.Register(regs[i%n]) })))
	m.set("revoke.resolve_fact_ns", "ns", first(timeCalls(microCalls, func(i int) {
		sinkFlows = ix.ResolveFact(at(i).five.SrcIP, "name", sinkFlows[:0])
	})))
	m.set("revoke.drop_ns", "ns", first(timeCalls(microCalls, func(i int) {
		if i >= n {
			ix.Register(regs[i%n]) // keeps every timed Drop a real one
		}
		ix.Drop(regs[i%n].Flow)
	})))

	// HandleEvent in process, configured as identctl configures it for this
	// workload, against a datapath that discards and canned answers.
	cfg := core.Config{
		Name: "bench", Policy: policy, Transport: answers, Topology: benchTopo{},
		InstallEntries: true, AsyncQueries: true, Revocation: true, RevocationLeaseTTL: 5 * time.Minute,
		ResponseCacheTTL: r.w.cacheTTL, Megaflow: r.w.megaflow,
	}
	ctl := core.New(cfg)
	for d := 1; d <= nDatapaths; d++ {
		ctl.AddDatapath(discard{id: uint64(d)})
	}
	for i := 0; i < n; i++ { // founders and first registrations stay untimed
		ctl.HandleEvent(in[i].ev)
	}
	ns, allocs = timeCalls(microCalls, func(i int) { ctl.HandleEvent(at(i).ev) })
	m.set("core.handle_event_ns", "ns", ns)
	m.set("core.handle_event_allocs", "count", allocs)

	return r.microQuery(m)
}

// microQuery times the query plane alone: its own Engine and Pool against
// one of the rig's daemons, one query at a time and 32 at a time.
func (r *rig) microQuery(m metrics) error {
	const host, queries, depth = 0, 4096, 32
	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{hostIP(host): r.servers[host].addr}})
	defer pool.Close()
	eng := query.NewEngine(query.Config{Lower: pool})
	defer eng.Close()
	var qs []wire.Query
	for _, ps := range r.procs[host] {
		for _, i := range ps.flows {
			qs = append(qs, wire.Query{Flow: r.u.flows[i].five, Keys: []string{"name", "version"}})
		}
	}
	ask := func(i int) error {
		_, _, err := eng.Query(hostIP(host), qs[i%len(qs)])
		return err
	}
	if err := ask(0); err != nil { // dials and subscribes
		return fmt.Errorf("query plane against %s: %w", r.servers[host].addr, err)
	}
	var firstErr error
	ns, _ := timeCalls(queries, func(i int) {
		if err := ask(i); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	m.set("query.rtt_us", "us", ns/1000)
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < queries; i += depth {
				if err := ask(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	m.set("query.pipelined_us_per_query", "us", float64(time.Since(start).Microseconds())/queries)
	return firstErr
}

func first(a, _ float64) float64 { return a }
