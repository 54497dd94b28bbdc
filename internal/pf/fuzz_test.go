package pf

import (
	"testing"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// FuzzParsePolicy drives the full parser → compiler → evaluator pipeline
// with arbitrary policy source. The invariants:
//
//   - parse + compile must never panic (errors are fine),
//   - a policy that compiles must lower, and the compiled program and the
//     tree-walking interpreter must return identical verdicts (action,
//     matched rule, keep-state) for every probe input — the differential
//     contract, under fuzz-shaped rulesets instead of the curated corpus.
func FuzzParsePolicy(f *testing.F) {
	seeds := []string{
		"block all",
		"pass all keep state",
		"block quick from any to any\npass from any to any",
		"table <lan> { 192.168.0.0/24 }\nblock all\npass from <lan> to !<lan> port 443",
		"table <a> { 1.2.3.4 }\ntable <b> { <a> 10.0.0.0/8 }\npass from { <b> !5.6.7.8 } to any port { 80, 443 }",
		"allowed = \"{ http ssh }\"\nblock all\npass from any to any with member(@src[name], $allowed)",
		"dict <pubkeys> { research : abc }\nblock all\npass all with eq(@pubkeys[research], abc)",
		"block all\npass from any to any with allowed(@dst[requirements])",
		"block all\npass from any to any with allowed(\"block all pass from any to any port 80\")",
		"block all\npass from any to any with allowed(\"block all pass from !10.0.0.0/8 to any\")",
		"block all\npass from any to any with eq(*@src[netpath], \"a,b\")",
		"pass all\nblock all with lt(@src[version], 200) with gt(@src[version], 100)",
		"pass from any to any with verify(@src[req-sig], @pubkeys[k], @src[exe-hash])",
		"block log all\npass from 0.0.0.0/0 to 255.255.255.255",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	// Probe inputs shared across every fuzzed policy: a few header shapes
	// and response sets that reach the dictionary, macro, concat, and
	// embedded-rule paths.
	probeFlows := []flow.Five{
		{SrcIP: netaddr.MustParseIP("192.168.0.5"), DstIP: netaddr.MustParseIP("8.8.8.8"),
			Proto: netaddr.ProtoTCP, SrcPort: 999, DstPort: 443},
		{SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
			Proto: netaddr.ProtoUDP, SrcPort: 53, DstPort: 53},
	}
	probeResp := func(fv flow.Five) *wire.Response {
		r := wire.NewResponse(fv)
		r.Add("name", "skype")
		r.Add("version", "150")
		r.Add("requirements", "block all pass from any to any port 443")
		r.Augment("controller:fuzz").Add("netpath", "b")
		return r
	}

	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		p, err := Compile(file)
		if err != nil {
			return
		}
		for _, fv := range probeFlows {
			for _, withResp := range []bool{false, true} {
				in := Input{Flow: fv}
				if withResp {
					in.Src = probeResp(fv)
					in.Dst = probeResp(fv)
				}
				if diff := disagreement(p, in, p.Evaluate(in)); diff != "" {
					t.Fatalf("engines disagree on %q (flow %s, resp=%v):\n%s", src, fv, withResp, diff)
				}
			}
		}
	})
}
