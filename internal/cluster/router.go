package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/link"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// Router sits in front of one replica's core.Controller and enforces flow
// ownership: packet-ins for flows the ring assigns to this replica run the
// local decision pipeline unchanged (one ring lookup of added cost, zero
// added allocations); packet-ins for flows owned elsewhere are forwarded
// to the owner over its Link and acked once the owner has accepted them.
// Configuration writes go through the Router so they replicate
// (epoch-fenced snapshot push); membership changes rebuild the ring and
// delete a departed replica's entries off the switches.
//
// A Router wraps exactly one Controller and is safe for concurrent use.
type Router struct {
	local *core.Controller
	self  Member
	dial  func(Member) (Link, error)

	ring atomic.Pointer[ring]

	// mu serializes configuration and membership writers; readers never
	// take it (the packet path loads the ring pointer, nothing else).
	mu  sync.Mutex
	cfg Snapshot

	lis link.Listener // the served half: Serve, Close

	// tr is the flight recorder for the forwarder's half of a hand-off
	// (nil = tracing disabled). The owned path never touches it — the
	// wrapped controller records there — so the M14 budget is unaffected.
	tr *trace.Recorder

	// Counters is the router's observability surface (cluster_* namespace,
	// registered via telemetry.RegisterRouter).
	Counters *metrics.Counter
	hot      struct {
		owned     *atomic.Int64
		forwarded *atomic.Int64
		received  *atomic.Int64
		fallbacks *atomic.Int64
	}
}

// Options configures optional Router collaborators.
type Options struct {
	// Dial constructs the Link to a peer member. Defaults to DialTCP on
	// the member's Addr; in-process replica sets pass a closure returning
	// Loopback links.
	Dial func(Member) (Link, error)
	// Trace enables the flight recorder on the forward path: a forwarded
	// packet-in mints (or inherits) a trace ID, carries it to the owner in
	// its FrameEvent, and the forwarder retains its own half with a
	// StageForward span covering the full hand-off round trip. Enabling it
	// here without also enabling tracing on the peer replicas loses the
	// owner halves but breaks nothing.
	Trace *trace.Recorder
}

// NewRouter wraps local. The ring starts with self as the only member —
// a single-replica deployment needs no SetMembers call and pays one ring
// lookup per event. local must be named self.ID: the name is the installer
// tag its entries carry, and the tag the survivors delete when self leaves
// the ring.
func NewRouter(local *core.Controller, self Member, opts Options) *Router {
	if local.Name() != self.ID {
		panic(fmt.Sprintf("cluster: controller %q fronted as member %q; a replica's controller is named by its member id", local.Name(), self.ID))
	}
	r := &Router{
		local:    local,
		self:     self,
		dial:     opts.Dial,
		tr:       opts.Trace,
		Counters: metrics.NewCounter(),
	}
	if r.dial == nil {
		r.dial = func(m Member) (Link, error) {
			if m.Addr == "" {
				return nil, fmt.Errorf("cluster: member %s has no address", m.ID)
			}
			return DialTCP(m.Addr), nil
		}
	}
	r.hot.owned = r.Counters.Cell("cluster_events_owned")
	r.hot.forwarded = r.Counters.Cell("cluster_events_forwarded")
	r.hot.received = r.Counters.Cell("cluster_events_received")
	r.hot.fallbacks = r.Counters.Cell("cluster_forward_fallbacks")
	r.ring.Store(&ring{
		members: []Member{self},
		seeds:   []uint64{fnv64(self.ID)},
		links:   []Link{nil},
		self:    0,
	})
	return r
}

// Local returns the wrapped controller (operator surfaces and tests).
func (r *Router) Local() *core.Controller { return r.local }

// Self returns this replica's member identity.
func (r *Router) Self() Member { return r.self }

// HandleEvent is the ownership gate in front of the Figure 1 pipeline.
// The owned path must stay within the M14 allocation budget (≤ 2
// allocs/op end to end, i.e. the controller's own budget plus nothing):
// one ring load, one deterministic hash, one argmax.
func (r *Router) HandleEvent(ev openflow.PacketIn) {
	rg := r.ring.Load()
	o := rg.owner(ownerHash(ev.Tuple.Five()))
	if o == rg.self || o < 0 || rg.links[o] == nil {
		r.hot.owned.Add(1)
		r.local.HandleEvent(ev)
		return
	}
	r.hot.forwarded.Add(1)
	// Forwarder half of a stitched trace: mint (or inherit) the ID before
	// the hand-off so the owner's decision begins under the same ID, and
	// retain a local trace whose StageForward span covers the full round
	// trip — the owner's decision plus both wire legs.
	tb := r.tr.Begin(ev.TraceID)
	if tb != nil {
		f := ev.Tuple.Five()
		tb.SetFlow(uint8(f.Proto), uint32(f.SrcIP), uint32(f.DstIP), uint16(f.SrcPort), uint16(f.DstPort))
		ev.TraceID = tb.ID()
	}
	if err := rg.links[o].ForwardEvent(ev); err != nil {
		// Availability over strict ownership: an unreachable owner must
		// not blackhole the flow. Decide locally — installs are idempotent
		// and revocation-correct teardown of the duplicate state follows
		// from both replicas subscribing — and count the violation; a
		// nonzero fallback rate is the operator's cue that a link or
		// replica is down. The local decision keeps the minted trace ID,
		// so the fallback's trace stitches to this forward attempt.
		r.hot.fallbacks.Add(1)
		tb.Rec(trace.StageForward, trace.FlagFallback|trace.FlagErr, int64(o))
		tb.SetVerdict("forward-fallback")
		r.tr.Finish(tb)
		r.local.HandleEvent(ev)
		return
	}
	tb.Rec(trace.StageForward, 0, int64(o))
	tb.SetVerdict("forwarded")
	r.tr.Finish(tb)
}

// DeliverEvent runs a forwarded packet-in on the local controller. It is
// the receive half of Link.ForwardEvent: when it returns the owner has
// accepted the event — decided it, or (AsyncQueries) parked the decision on
// its query plane — and that, not a verdict, is what the forwarding ack says.
func (r *Router) DeliverEvent(ev openflow.PacketIn) {
	r.hot.received.Add(1)
	r.local.HandleEvent(ev)
}

// HandlePacketIn implements openflow.Controller, so a Router can be
// installed directly as an in-process switch's controller.
func (r *Router) HandlePacketIn(sw *openflow.Switch, ev openflow.PacketIn) {
	r.HandleEvent(ev)
}

// HandleFlowRemoved implements openflow.Controller. Expiry notifications
// clean up per-flow decision state, which lives at the flow's owner; a
// non-owner receiving one (shared in-process switches, or a switch whose
// notification connection lands on the wrong replica) hands it to the
// owner when the link is in-process, and otherwise processes it locally —
// dropping state the replica does not hold is a no-op, and the owner's
// lease sweep remains the backstop.
func (r *Router) HandleFlowRemoved(sw *openflow.Switch, ev openflow.FlowRemoved) {
	rg := r.ring.Load()
	o := rg.owner(ownerHash(ev.Match.Tuple.Five()))
	if o != rg.self && o >= 0 {
		if lb, ok := rg.links[o].(Loopback); ok {
			lb.Peer.local.HandleFlowRemoved(sw, ev)
			return
		}
	}
	r.local.HandleFlowRemoved(sw, ev)
}

// Owner reports which member owns f under the current ring.
func (r *Router) Owner(f flow.Five) Member {
	rg := r.ring.Load()
	o := rg.owner(ownerHash(f))
	if o < 0 {
		return r.self
	}
	return rg.members[o]
}

// Owns reports whether this replica owns f under the current ring.
func (r *Router) Owns(f flow.Five) bool {
	return r.ring.Load().ownsSelf(ownerHash(f))
}

// SetMembers installs a new replica set and rebuilds the ring. Links to
// retained members are reused; links to departed members are closed after
// the swap. Every member that left the ring — by id; never this replica —
// is taken over: everything it installed on the local switches is deleted
// by its installer tag (core.Controller.TakeOver), so each of its flows'
// next packet punts to the flow's new owner and re-decides under current
// endpoint state through the ordinary query plane (which re-queries and
// re-subscribes: failover = resubscribe). Serial-gap resync on the query
// plane covers updates the dead owner consumed that this one never saw. A
// join or a stable rebuild deletes nothing: a flow whose ownership moved to
// a joiner keeps its entries, which its old owner's records still
// supervise.
func (r *Router) SetMembers(members []Member) error {
	r.mu.Lock()
	old := r.ring.Load()
	rg := &ring{
		members: append([]Member(nil), members...),
		seeds:   make([]uint64, len(members)),
		links:   make([]Link, len(members)),
		self:    -1,
	}
	var dialErr error
	for i, m := range members {
		rg.seeds[i] = fnv64(m.ID)
		if m.ID == r.self.ID {
			rg.self = i
			continue
		}
		if j := old.memberIndex(m); j >= 0 && old.links[j] != nil {
			rg.links[i] = old.links[j]
			continue
		}
		l, err := r.dial(m)
		if err != nil {
			// A member we cannot link to stays in the ring (ownership must
			// agree cluster-wide regardless of who can reach whom); its
			// flows fall back to local decisions until a later SetMembers.
			dialErr = err
			continue
		}
		rg.links[i] = l
	}
	r.ring.Store(rg)
	r.Counters.Add("cluster_ring_rebuilds", 1)
	for j, l := range old.links {
		if l == nil {
			continue
		}
		if i := indexOfMember(members, old.members[j]); i < 0 || rg.links[i] != l {
			l.Close()
		}
	}
	snap := r.snapshotLocked()
	links := retainedLinks(rg)
	r.mu.Unlock()

	for _, m := range old.members {
		stays := slices.ContainsFunc(members, func(n Member) bool { return n.ID == m.ID })
		if m.ID != r.self.ID && !stays {
			if n := r.local.TakeOver(m.ID); n > 0 {
				r.Counters.Add("cluster_takeover_swept", int64(n))
			}
		}
	}
	// Late joiners get the current config without waiting for the next
	// write: push the snapshot we hold at every live peer; fenced, so
	// peers holding the same or newer epoch reject it harmlessly.
	r.pushAll(snap, links)
	return dialErr
}

func (r *ring) memberIndex(m Member) int {
	return indexOfMember(r.members, m)
}

func indexOfMember(ms []Member, m Member) int {
	for i := range ms {
		if ms[i].ID == m.ID && ms[i].Addr == m.Addr {
			return i
		}
	}
	return -1
}

func retainedLinks(rg *ring) []Link {
	out := make([]Link, 0, len(rg.links))
	for _, l := range rg.links {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

// RemoveMember drops one replica from the ring — the failover entry
// point when a peer is declared dead.
func (r *Router) RemoveMember(id string) error {
	cur := r.ring.Load().members
	next := make([]Member, 0, len(cur))
	for _, m := range cur {
		if m.ID != id {
			next = append(next, m)
		}
	}
	return r.SetMembers(next)
}

// SetPolicy compiles src and installs it as the cluster's policy: applied
// locally, then pushed to every peer under a bumped epoch. Compile errors
// reject the write before any state changes anywhere.
func (r *Router) SetPolicy(name, src string, defaultBlock bool) error {
	p, err := compilePolicy(name, src, defaultBlock)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.cfg.Epoch++
	r.cfg.Origin = r.self.ID
	r.cfg.PolicyName, r.cfg.PolicySrc, r.cfg.DefaultBlock = name, src, defaultBlock
	r.local.SetPolicy(p)
	snap := r.snapshotLocked()
	links := retainedLinks(r.ring.Load())
	r.mu.Unlock()
	r.pushAll(snap, links)
	return nil
}

// AnswerForHost merges answer-on-behalf pairs for ip cluster-wide.
func (r *Router) AnswerForHost(ip netaddr.IP, pairs ...wire.KV) {
	r.mu.Lock()
	if r.cfg.Answers == nil {
		r.cfg.Answers = make(map[netaddr.IP][]wire.KV)
	}
	r.cfg.Answers[ip] = append(r.cfg.Answers[ip], pairs...)
	r.cfg.Epoch++
	r.cfg.Origin = r.self.ID
	r.local.AnswerForHost(ip, pairs...)
	snap := r.snapshotLocked()
	links := retainedLinks(r.ring.Load())
	r.mu.Unlock()
	r.pushAll(snap, links)
}

// AddDatapath registers this replica's own connection to a switch. Nothing
// replicates: a switch connection is per-replica (every switch connects to
// every replica, and each registers its own), so a connect moves no config
// epoch and pushes no snapshot.
func (r *Router) AddDatapath(dp openflow.Datapath) { r.local.AddDatapath(dp) }

// RemoveDatapath deregisters this replica's handle for a switch whose
// connection is gone (core.Controller.RemoveDatapath; identity-guarded the
// same way).
func (r *Router) RemoveDatapath(dp openflow.Datapath) bool {
	return r.local.RemoveDatapath(dp)
}

// snapshotLocked deep-copies the current config for a push; r.mu held.
func (r *Router) snapshotLocked() *Snapshot {
	s := r.cfg
	s.Answers = make(map[netaddr.IP][]wire.KV, len(r.cfg.Answers))
	for ip, kvs := range r.cfg.Answers {
		s.Answers[ip] = append([]wire.KV(nil), kvs...)
	}
	return &s
}

// pushAll delivers snap to every link, best-effort: a peer that is down
// catches up from the join-time push of the next SetMembers, or from the
// next config write. Stale rejections are the fence working, not errors.
func (r *Router) pushAll(snap *Snapshot, links []Link) {
	for _, l := range links {
		switch err := l.PushSnapshot(snap); err {
		case nil:
			r.Counters.Add("cluster_snapshots_pushed", 1)
		case ErrStaleEpoch:
			r.Counters.Add("cluster_snapshots_fenced", 1)
		default:
			_ = err
			r.Counters.Add("cluster_push_errors", 1)
		}
	}
}

// ApplySnapshot installs a peer's config snapshot if it supersedes the
// applied one, rejecting stale epochs with ErrStaleEpoch — the receive
// half of the epoch fence. The policy is recompiled from source only when
// it actually changed, so answer-only pushes do not flush verdict caches.
func (r *Router) ApplySnapshot(s *Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !s.newerThan(r.cfg.Epoch, r.cfg.Origin) {
		r.Counters.Add("cluster_snapshots_stale", 1)
		return ErrStaleEpoch
	}
	policyChanged := s.PolicySrc != r.cfg.PolicySrc ||
		s.PolicyName != r.cfg.PolicyName ||
		s.DefaultBlock != r.cfg.DefaultBlock
	if policyChanged {
		p, err := compilePolicy(s.PolicyName, s.PolicySrc, s.DefaultBlock)
		if err != nil {
			// Reject without advancing the epoch: a snapshot this replica
			// cannot compile must not fence out a later good one.
			r.Counters.Add("cluster_snapshot_errors", 1)
			return err
		}
		r.local.SetPolicy(p)
	}
	r.local.ReplaceAnswers(s.Answers)
	r.cfg = *s
	r.Counters.Add("cluster_snapshots_applied", 1)
	return nil
}

// Epoch returns the applied config epoch and its origin replica.
func (r *Router) Epoch() (uint64, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.Epoch, r.cfg.Origin
}

func compilePolicy(name, src string, defaultBlock bool) (*pf.Policy, error) {
	f, err := pf.Parse(name, src)
	if err != nil {
		return nil, err
	}
	p, err := pf.Compile(f)
	if err != nil {
		return nil, err
	}
	if defaultBlock {
		p.Default = pf.Block
	}
	return p, nil
}

// ReplicaStat is one ring member's share of the flow space, for the
// `/ring` operator view.
type ReplicaStat struct {
	Member Member
	Self   bool
	Linked bool
	Share  float64
}

// RingStats samples the ownership function over a deterministic synthetic
// flow population and reports each member's share. Shares are estimates
// of the hash-space split (HRW gives 1/N ± sampling noise), not live flow
// counts.
func (r *Router) RingStats(samples int) []ReplicaStat {
	if samples <= 0 {
		samples = 4096
	}
	rg := r.ring.Load()
	stats := make([]ReplicaStat, len(rg.members))
	counts := make([]int, len(rg.members))
	for i, m := range rg.members {
		stats[i] = ReplicaStat{
			Member: m,
			Self:   i == rg.self,
			Linked: i == rg.self || rg.links[i] != nil,
		}
	}
	if len(rg.members) == 0 {
		return stats
	}
	for i := 0; i < samples; i++ {
		// An arbitrary-but-fixed walk of the flow space; mix64 decorrelates
		// it from the member seeds.
		h := mix64(uint64(i)*0x9e3779b97f4a7c15 + 1)
		if o := rg.owner(h); o >= 0 {
			counts[o]++
		}
	}
	for i := range stats {
		stats[i].Share = float64(counts[i]) / float64(samples)
	}
	return stats
}

// Members returns the current ring membership.
func (r *Router) Members() []Member {
	return append([]Member(nil), r.ring.Load().members...)
}
