package pf

import "testing"

// These tests pin the field-use trace EvaluateTraced reports — the mask
// the controller's megaflow layer widens verdicts by. A trace that
// over-approximates costs cache efficiency; one that under-approximates
// applies a verdict to flows the policy would have decided differently,
// so every case here is a soundness fence. The property itself — flows
// agreeing on the traced fields get the same verdict — is checked over
// generated rulesets in dispatch_test.go (TestTraceWideningSoundness).

func TestTraceMaskDerivation(t *testing.T) {
	cases := []struct {
		name    string
		policy  string
		src     []string // kv pairs for the src response
		dst     []string
		fields  uint8
		srcRead bool
		dstRead bool
	}{
		{
			// Constant-outcome guards (any/any) examine nothing: every
			// flow takes the same path, so the class is all of traffic.
			name:   "block all examines nothing",
			policy: "block all",
			fields: 0,
		},
		{
			// A prefix guard examines exactly the address it constrains.
			name:   "src prefix pins SrcIP only",
			policy: "block all\npass from 10.0.0.0/8 to any",
			fields: TraceSrcIP,
		},
		{
			// A port range examines its port; `port any` would not.
			name:   "dst port guard pins DstPort",
			policy: "block all\npass from any to any port 443",
			fields: TraceDstPort,
		},
		{
			// Reading a key from an end pins that end's full addressing:
			// the daemon's answer is a function of who was asked.
			name:    "dst key read pins the dst end",
			policy:  "block all\npass from any to any port 5060 with eq(@dst[name], skype)",
			dst:     []string{"name", "skype"},
			fields:  TraceDstIP | TraceDstPort,
			dstRead: true,
		},
		{
			// Both ends read: the class degenerates to the single flow.
			name:    "both-end reads cover all fields",
			policy:  "block all\npass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)",
			src:     []string{"name", "skype"},
			dst:     []string{"name", "skype"},
			fields:  TraceAllFields,
			srcRead: true,
			dstRead: true,
		},
		{
			// Embedded rules trace into their caller: the src key read
			// pins the src end, and the embedded program's dst port guard
			// surfaces in the outer trace.
			name:    "embedded rules merge their trace",
			policy:  "block all\npass from any to any with allowed(@src[requirements])",
			src:     []string{"requirements", "block all pass from any to any port 80"},
			fields:  TraceSrcIP | TraceSrcPort | TraceDstPort,
			srcRead: true,
		},
	}
	f := tcp("10.1.2.3", 40000, "192.168.0.9", 80)
	f.DstPort = 5060
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := MustCompile("t", tc.policy)
			flw := f
			if tc.fields&TraceDstPort != 0 && tc.policy == cases[2].policy {
				flw.DstPort = 443
			}
			in := Input{Flow: flw}
			if len(tc.src) > 0 {
				in.Src = resp(flw, tc.src...)
			}
			if len(tc.dst) > 0 {
				in.Dst = resp(flw, tc.dst...)
			}
			d, tr := p.EvaluateTraced(in)
			if tr.Fields != tc.fields {
				t.Errorf("Fields = %04b, want %04b", tr.Fields, tc.fields)
			}
			if tr.SrcRead != tc.srcRead || tr.DstRead != tc.dstRead {
				t.Errorf("SrcRead/DstRead = %v/%v, want %v/%v", tr.SrcRead, tr.DstRead, tc.srcRead, tc.dstRead)
			}
			if plain := p.Evaluate(in); plain.Action != d.Action || plain.Matched != d.Matched {
				t.Errorf("traced decision %v/%v != plain %v/%v", d.Action, d.Matched, plain.Action, plain.Matched)
			}
		})
	}
}

// TestTraceMaskZeroesUntracedFields: the mask keeps exactly the traced
// fields (plus the protocol, which is always part of the class key) and
// zeroes the rest.
func TestTraceMaskZeroesUntracedFields(t *testing.T) {
	f := tcp("10.1.2.3", 40000, "192.168.0.9", 5060)
	m := Trace{Fields: TraceDstIP | TraceDstPort}.Mask(f)
	if m.SrcIP != 0 || m.SrcPort != 0 {
		t.Errorf("untraced src fields survived the mask: %+v", m)
	}
	if m.DstIP != f.DstIP || m.DstPort != f.DstPort || m.Proto != f.Proto {
		t.Errorf("traced fields (or proto) lost: %+v", m)
	}
	if all := (Trace{Fields: TraceAllFields}).Mask(f); all != f {
		t.Errorf("full mask should be identity: %+v", all)
	}
}
