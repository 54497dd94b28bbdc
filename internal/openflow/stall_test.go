package openflow_test

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/query"
)

// octetTopo places a host on the datapath its address's third octet names,
// at the port its fourth names.
type octetTopo struct{}

func (octetTopo) Path(_, dst netaddr.IP) ([]core.Hop, error) {
	_, _, dp, port := dst.Octets()
	return []core.Hop{{Datapath: uint64(dp), OutPort: uint16(port)}}, nil
}

// registrar is identctl's channel handler: switches are datapaths for as long
// as their channel is up.
type registrar struct{ ctl *core.Controller }

func (h registrar) SwitchConnected(sw *openflow.RemoteSwitch)    { h.ctl.AddDatapath(sw) }
func (h registrar) SwitchDisconnected(sw *openflow.RemoteSwitch) { h.ctl.RemoveDatapath(sw) }
func (h registrar) FlowRemoved(*openflow.RemoteSwitch, openflow.FlowRemoved) {
}
func (h registrar) PacketIn(_ *openflow.RemoteSwitch, ev openflow.PacketIn) {
	if p, err := packet.Decode(ev.Frame); err == nil {
		ev.Tuple = p.Ten(ev.InPort)
	}
	h.ctl.HandleEvent(ev)
}

type txCount struct {
	mu sync.Mutex
	n  int
}

func (c *txCount) Transmit(*openflow.Switch, uint16, []byte) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *txCount) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// A switch that stops reading its channel is cut off at the channel's write
// deadline instead of blocking, for ever, every decision that installs on it:
// decisions finish on the query plane's connection readers, which must get
// their goroutine back. Meanwhile a healthy switch, whose flows ask other
// hosts, keeps getting verdicts.
func TestStalledSwitchIsCutOffAtWriteDeadline(t *testing.T) {
	const deadline = time.Second
	defer openflow.SetChannelTimeout(deadline)()

	// One daemon answers for every host; the pool still opens a connection,
	// with its own reader, per host address.
	srv := daemon.NewServer(daemon.New(hostinfo.New("any", netaddr.MustParseIP("10.0.0.1"), 1)))
	daemonAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := query.NewPool(query.PoolConfig{Resolver: query.FixedResolver(daemonAddr.String())})
	defer pool.Close()
	eng := query.NewEngine(query.Config{Lower: pool})
	defer eng.Close()
	ctl := core.New(core.Config{
		Name:           "stall-test",
		Policy:         pf.MustCompile("p", "pass all keep state\nblock all with eq(@src[name], worm)\n"),
		Transport:      eng,
		Topology:       octetTopo{},
		InstallEntries: true,
		AsyncQueries:   true,
	})
	server := openflow.NewChannelServer(registrar{ctl})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// Switch 1 is healthy: a real agent. Its flows run 10.0.1.1 → 10.0.1.2.
	var tx txCount
	sw := openflow.NewSwitch(1, "healthy", 0)
	sw.AddPort(1)
	sw.AddPort(2)
	sw.SetTransmitter(&tx)
	agent, err := openflow.Connect(sw, addr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	healthy := func(port netaddr.Port) {
		t.Helper()
		five := flow.Five{SrcIP: netaddr.MustParseIP("10.0.1.1"), DstIP: netaddr.MustParseIP("10.0.1.2"), Proto: netaddr.ProtoTCP, SrcPort: port, DstPort: 80}
		before := tx.count()
		sw.Receive(1, packet.TCPFrame(1, 2, five, packet.TCPSyn, nil))
		for began := time.Now(); tx.count() == before; time.Sleep(time.Millisecond) {
			if time.Since(began) > deadline/2 {
				t.Fatalf("healthy switch: no verdict for flow %d within %v", port, deadline/2)
			}
		}
	}

	// Switch 2 says hello, reads the reply and never reads again, while its
	// packet-ins (10.0.2.1 → 10.0.2.2) keep coming.
	stalled, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], 2)
	if err := openflow.WriteMsg(stalled, openflow.Msg{Type: openflow.MsgHello, Body: hello[:]}); err != nil {
		t.Fatal(err)
	}
	if m, err := openflow.ReadMsg(stalled); err != nil || m.Type != openflow.MsgHello {
		t.Fatalf("hello reply: %v, %v", m.Type, err)
	}
	for began := time.Now(); ctl.DatapathCount() != 2; time.Sleep(time.Millisecond) {
		if time.Since(began) > 5*time.Second {
			t.Fatal("switch 2 never registered")
		}
	}
	healthy(1)

	gone := make(chan time.Duration, 1)
	go func() {
		began := time.Now()
		// Whatever TCP does with a peer that only writes, the test ends.
		stalled.SetWriteDeadline(began.Add(20 * time.Second))
		payload := make([]byte, 1200) // comes back in a packet-out: fills the channel sooner
		for port := 1; ctl.DatapathCount() == 2 && time.Since(began) < 20*time.Second; port++ {
			five := flow.Five{SrcIP: netaddr.MustParseIP("10.0.2.1"), DstIP: netaddr.MustParseIP("10.0.2.2"), Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(port), DstPort: netaddr.Port(1 + port>>16)}
			ev := openflow.PacketIn{SwitchID: 2, BufferID: openflow.BufferNone, InPort: 1, Frame: packet.TCPFrame(1, 2, five, packet.TCPSyn, payload)}
			if openflow.WriteMsg(stalled, openflow.EncodePacketIn(ev, uint32(port))) != nil {
				break // the controller hung up
			}
		}
		for ctl.DatapathCount() == 2 && time.Since(began) < 20*time.Second {
			time.Sleep(time.Millisecond)
		}
		gone <- time.Since(began)
	}()
	for port := netaddr.Port(2); ; port++ {
		select {
		case took := <-gone:
			if n := ctl.DatapathCount(); n != 1 {
				t.Fatalf("%d datapaths %v after switch 2 stopped reading, want it deregistered", n, took)
			}
			healthy(port)
			return
		default:
			healthy(port)
		}
	}
}
