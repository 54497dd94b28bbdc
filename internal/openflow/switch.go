package openflow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/packet"
)

// BufferNone means "the whole frame travelled in the PACKET_IN"; any other
// buffer id refers to a frame parked in the switch awaiting the
// controller's verdict (OFP_NO_BUFFER in OpenFlow 1.0).
const BufferNone uint32 = 0xffffffff

// PacketInReason mirrors OFPR_*.
type PacketInReason int

// Packet-in reasons.
const (
	ReasonNoMatch PacketInReason = iota // table miss
	ReasonAction                        // an entry's action said "controller"
)

// PacketIn is the event a switch raises to its controller on a table miss
// (Figure 1, step 2: "first-hop switch forwards packet to controller").
type PacketIn struct {
	SwitchID uint64
	BufferID uint32
	InPort   uint16
	Reason   PacketInReason
	Tuple    flow.Ten
	Frame    []byte

	// TraceID carries the flight-recorder trace across replica hand-offs
	// (internal/trace): set by a forwarding cluster router, consumed by
	// the owning controller's decision. 0 = untraced. Not part of the
	// OpenFlow event itself — switches never set it.
	TraceID uint64
}

// FlowRemoved is the eviction notification a switch raises when an entry
// with NotifyRemoved expires or is deleted.
type FlowRemoved struct {
	SwitchID uint64
	Match    flow.Match
	Cookie   uint64
	Reason   RemovedReason
	Packets  uint64
	Bytes    uint64
}

// Controller is what a switch speaks to. The in-process simulator
// implements it directly; the TCP secure channel adapts the binary protocol
// to it.
type Controller interface {
	HandlePacketIn(sw *Switch, ev PacketIn)
	HandleFlowRemoved(sw *Switch, ev FlowRemoved)
}

// Transmitter delivers a frame out a switch port; the network simulator
// implements it.
type Transmitter interface {
	Transmit(sw *Switch, port uint16, frame []byte)
}

// Stats counts datapath events.
type Stats struct {
	RxPackets   atomic.Uint64
	TxPackets   atomic.Uint64
	Drops       atomic.Uint64
	TableMisses atomic.Uint64
	PacketIns   atomic.Uint64
	FlowMods    atomic.Uint64
	DecodeErrs  atomic.Uint64
}

// Switch is one OpenFlow datapath.
type Switch struct {
	ID    uint64
	Name  string
	Table *Table

	// Clock supplies time for timeouts; the simulator injects its virtual
	// clock. Defaults to time.Now.
	Clock func() time.Time

	Stats Stats

	mu         sync.Mutex
	ports      map[uint16]bool // known ports
	controller Controller
	trans      Transmitter
	buffers    map[uint32]bufferedFrame
	nextBufID  uint32
	maxBuffers int
}

type bufferedFrame struct {
	inPort uint16
	frame  []byte
}

// NewSwitch creates a switch with the given datapath id and table capacity.
func NewSwitch(id uint64, name string, tableCapacity int) *Switch {
	return &Switch{
		ID:         id,
		Name:       name,
		Table:      NewTable(tableCapacity),
		Clock:      time.Now,
		ports:      make(map[uint16]bool),
		buffers:    make(map[uint32]bufferedFrame),
		maxBuffers: 256,
	}
}

// AddPort registers a port.
func (s *Switch) AddPort(port uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ports[port] = true
}

// SetController attaches the controller.
func (s *Switch) SetController(c Controller) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.controller = c
}

// SetTransmitter attaches the port output sink.
func (s *Switch) SetTransmitter(t Transmitter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trans = t
}

// Receive processes a frame arriving on inPort: decode, look up, apply
// actions or raise a PACKET_IN. Malformed frames are counted and dropped,
// as hardware would.
func (s *Switch) Receive(inPort uint16, frame []byte) {
	s.Stats.RxPackets.Add(1)
	var p packet.Packet
	if err := p.DecodeInto(frame); err != nil {
		s.Stats.DecodeErrs.Add(1)
		return
	}
	ten := p.Ten(inPort)
	now := s.Clock()
	if e := s.Table.Lookup(ten, len(frame), now); e != nil {
		s.apply(e.Actions, inPort, frame, ten)
		return
	}
	s.Stats.TableMisses.Add(1)
	s.punt(inPort, frame, ten, ReasonNoMatch)
}

func (s *Switch) punt(inPort uint16, frame []byte, ten flow.Ten, reason PacketInReason) {
	s.mu.Lock()
	c := s.controller
	var bufID uint32 = BufferNone
	if c != nil && len(s.buffers) < s.maxBuffers {
		bufID = s.nextBufID
		s.nextBufID++
		if s.nextBufID == BufferNone {
			s.nextBufID = 0
		}
		s.buffers[bufID] = bufferedFrame{inPort: inPort, frame: frame}
	}
	s.mu.Unlock()
	if c == nil {
		s.Stats.Drops.Add(1)
		return
	}
	s.Stats.PacketIns.Add(1)
	c.HandlePacketIn(s, PacketIn{
		SwitchID: s.ID,
		BufferID: bufID,
		InPort:   inPort,
		Reason:   reason,
		Tuple:    ten,
		Frame:    frame,
	})
}

func (s *Switch) apply(actions []Action, inPort uint16, frame []byte, ten flow.Ten) {
	if len(actions) == 0 {
		s.Stats.Drops.Add(1)
		return
	}
	for _, a := range actions {
		switch a.Type {
		case ActionDrop:
			s.Stats.Drops.Add(1)
		case ActionOutput:
			s.transmit(a.Port, frame)
		case ActionFlood:
			s.mu.Lock()
			ports := make([]uint16, 0, len(s.ports))
			for p := range s.ports {
				if p != inPort {
					ports = append(ports, p)
				}
			}
			s.mu.Unlock()
			for _, p := range ports {
				s.transmit(p, frame)
			}
		case ActionController:
			s.punt(inPort, frame, ten, ReasonAction)
		}
	}
}

func (s *Switch) transmit(port uint16, frame []byte) {
	s.mu.Lock()
	t := s.trans
	s.mu.Unlock()
	if t == nil {
		s.Stats.Drops.Add(1)
		return
	}
	s.Stats.TxPackets.Add(1)
	t.Transmit(s, port, frame)
}

// FlowMod is the controller's install/delete command.
type FlowMod struct {
	Match    flow.Match
	Priority int
	Actions  []Action
	Cookie   uint64
	// CookieMask scopes a delete by cookie, as in OpenFlow 1.1 and later: an
	// entry matches when its cookie agrees with Cookie on the mask's bits.
	// Zero matches every cookie.
	CookieMask  uint64
	IdleTimeout time.Duration
	HardTimeout time.Duration
	// BufferID, when not BufferNone, releases the referenced buffered frame
	// through the new entry's actions — Figure 1 step 5, "packet proceeds
	// to destination".
	BufferID uint32
	// NotifyRemoved requests a FlowRemoved event on eviction.
	NotifyRemoved bool
	// Delete removes matching entries instead of adding one.
	Delete bool
}

// Apply executes a FlowMod on the switch.
func (s *Switch) Apply(mod FlowMod) error {
	s.Stats.FlowMods.Add(1)
	now := s.Clock()
	if mod.Delete {
		pred := func(e *Entry) bool {
			if e.Cookie&mod.CookieMask != mod.Cookie&mod.CookieMask {
				return false
			}
			return mod.Match.Covers(e.Match.Tuple) || e.Match == mod.Match
		}
		var removed []Removed
		if f, ok := fiveGranular(mod.Match); ok {
			// Delete-by-flow: the common revocation shape hits the table's
			// 5-tuple index in O(1). Entries at other granularities that the
			// match would also cover are scanned only when any exist — in a
			// controller-programmed table there are none.
			removed = s.Table.DeleteFlow(f, mod.Cookie, mod.CookieMask)
			if s.Table.OtherGranularities() > 0 {
				removed = append(removed, s.Table.DeleteWhere(func(e *Entry) bool {
					if _, isFive := fiveGranular(e.Match); isFive {
						return false // the indexed path handled these
					}
					return pred(e)
				})...)
			}
		} else {
			removed = s.Table.DeleteWhere(pred)
		}
		s.notifyRemoved(removed, mod.NotifyRemoved)
		return nil
	}
	e := &Entry{
		Match:       mod.Match,
		Priority:    mod.Priority,
		Actions:     mod.Actions,
		Cookie:      mod.Cookie,
		IdleTimeout: mod.IdleTimeout,
		HardTimeout: mod.HardTimeout,
	}
	if err := s.Table.Insert(e, now); err != nil {
		return fmt.Errorf("switch %d: %w", s.ID, err)
	}
	if mod.BufferID != BufferNone {
		s.mu.Lock()
		buf, ok := s.buffers[mod.BufferID]
		delete(s.buffers, mod.BufferID)
		s.mu.Unlock()
		if ok {
			var p packet.Packet
			if err := p.DecodeInto(buf.frame); err == nil {
				s.apply(mod.Actions, buf.inPort, buf.frame, p.Ten(buf.inPort))
			}
		}
	}
	return nil
}

// PacketOut injects a frame out a port (the controller sourcing traffic,
// e.g. spoofed ident++ queries, §3.4).
func (s *Switch) PacketOut(port uint16, frame []byte) {
	s.transmit(port, frame)
}

// ReleaseBuffer drops a buffered frame without installing state (the
// controller decided to deny and the packet must not proceed).
func (s *Switch) ReleaseBuffer(bufID uint32) {
	if bufID == BufferNone {
		return
	}
	s.mu.Lock()
	_, ok := s.buffers[bufID]
	delete(s.buffers, bufID)
	s.mu.Unlock()
	if ok {
		s.Stats.Drops.Add(1)
	}
}

// Tick expires timed-out entries and delivers FlowRemoved notifications.
// The simulator calls it as virtual time advances.
func (s *Switch) Tick() {
	removed := s.Table.Expire(s.Clock())
	s.notifyRemoved(removed, true)
}

func (s *Switch) notifyRemoved(removed []Removed, notify bool) {
	if !notify || len(removed) == 0 {
		return
	}
	s.mu.Lock()
	c := s.controller
	s.mu.Unlock()
	if c == nil {
		return
	}
	for _, r := range removed {
		c.HandleFlowRemoved(s, FlowRemoved{
			SwitchID: s.ID,
			Match:    r.Entry.Match,
			Cookie:   r.Entry.Cookie,
			Reason:   r.Reason,
			Packets:  r.Entry.Packets,
			Bytes:    r.Entry.Bytes,
		})
	}
}
