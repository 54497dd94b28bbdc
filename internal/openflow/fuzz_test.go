package openflow

import (
	"testing"

	"identxx/internal/flow"
	"identxx/internal/packet"
)

// FuzzChannelPacketIn feeds the controller end of the secure channel
// arbitrary packet-in bodies: a switch's punt is input from outside the
// program. Decoding it, tuple included, never panics; when the frame parses,
// the tuple is the one an in-process punt of that frame carries, and when it
// does not, the tuple is zero.
func FuzzChannelPacketIn(f *testing.F) {
	seed := func(frame []byte) {
		f.Add(appendPacketInBody(nil, PacketIn{SwitchID: 1, BufferID: 7, InPort: 3, Frame: frame}))
	}
	tcp := testFrame(80)
	seed(tcp)                                                                                 // a TCP punt
	seed(tcp[:20])                                                                            // a truncated frame
	seed(packet.Builder{}.Eth(macA, macB, flow.EthTypeARP).Payload(make([]byte, 28)).Bytes()) // a non-IP frame

	f.Fuzz(func(t *testing.T, body []byte) {
		ev, err := decodePunt(Msg{Type: MsgPacketIn, Body: body})
		if err != nil {
			return
		}
		var p packet.Packet
		want := flow.Ten{}
		if p.DecodeInto(ev.Frame) == nil {
			want = p.Ten(ev.InPort)
		}
		if ev.Tuple != want {
			t.Fatalf("tuple %v, want %v", ev.Tuple, want)
		}
	})
}
