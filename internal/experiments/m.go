package experiments

import (
	"fmt"
	"strings"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/sig"
	"identxx/internal/workload"
)

// This file provides the scenario builders behind the M-series
// microbenchmarks (bench_test.go at the repository root). They are exported
// as constructors so benches measure only the hot path.

// SyntheticPolicy generates a PF+=2 policy with ruleCount rules: a default
// deny, (ruleCount-2) non-matching app-specific rules, and a final matching
// rule. With quick=true the matching rule is first and carries `quick`,
// ablating last-match-wins scan cost (M2).
func SyntheticPolicy(ruleCount int, quick bool) *pf.Policy {
	if ruleCount < 2 {
		ruleCount = 2
	}
	var b strings.Builder
	b.WriteString("block all\n")
	match := "pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state\n"
	if quick {
		b.WriteString(strings.Replace(match, "pass ", "pass quick ", 1))
	}
	for i := 0; i < ruleCount-2; i++ {
		fmt.Fprintf(&b, "pass from any to any port %d with eq(@src[name], app%d)\n",
			10000+i%5000, i)
	}
	if !quick {
		b.WriteString(match)
	}
	return pf.MustCompile(fmt.Sprintf("synthetic-%d", ruleCount), b.String())
}

// SetupBench is a ready-to-drive flow-setup scenario (M1): a linear chain
// of diameter switches with a skype client and server at the ends. Close
// Net when done with it.
type SetupBench struct {
	Net    *netsim.Network
	Ctl    *core.Controller
	Client *workload.Station
	Server *workload.Station
}

// NewSetupBench builds the M1 scenario.
func NewSetupBench(diameter, ruleCount int) *SetupBench {
	if diameter < 1 {
		diameter = 1
	}
	n := netsim.New()
	var chain []*netsim.SwitchNode
	for i := 0; i < diameter; i++ {
		sw := n.AddSwitch(fmt.Sprintf("s%d", i), 0)
		if i > 0 {
			n.ConnectSwitches(chain[i-1], sw)
		}
		chain = append(chain, sw)
	}
	ha := n.AddHost("client", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("server", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, chain[0])
	n.ConnectHost(hb, chain[len(chain)-1])
	sb := &SetupBench{Net: n}
	sb.Client = workload.Populate(ha, "alice", []string{"users"}, workload.Skype)
	sb.Server = workload.Populate(hb, "bob", []string{"users"}, workload.Skype)
	must(hb.Info.Listen(sb.Server.Proc["skype"].PID, netaddr.ProtoTCP, 5060))

	sb.Ctl = n.Controller(core.Config{Name: "m1", Policy: SyntheticPolicy(ruleCount, false)}, chain[0], chain[1:]...)
	return sb
}

// OneFlow opens one flow through the scenario and drains the simulator.
func (sb *SetupBench) OneFlow() error {
	five, err := sb.Client.Open("skype", sb.Server.Host.IP(), 5060)
	if err != nil {
		return err
	}
	sb.Net.Run(0)
	sb.Client.Host.Info.Close(five)
	return nil
}

// VerifyPolicy builds the M6 pair: an app-check policy with and without a
// signature verification in the decision path, plus a matching input.
func VerifyPolicy(withVerify bool) (*pf.Policy, pf.Input) {
	pub, priv := sig.MustGenerateKey()
	reqs := "block all pass all with eq(@src[name], research-app)"
	hash := workload.ResearchApp.Exe().Hash()
	signature := sig.Sign(priv, hash, "research-app", reqs)

	src := fmt.Sprintf(`
dict <pubkeys> { research : %s }
block all
pass from any to any \
    with eq(@src[name], research-app) \
    %s
`, pub, map[bool]string{
		true:  `with allowed(@src[requirements]) with verify(@src[req-sig], @pubkeys[research], @src[exe-hash], @src[app-name], @src[requirements])`,
		false: ``,
	}[withVerify])
	policy := pf.MustCompile("m6", src)

	f := flowTo(netaddr.MustParseIP("10.0.0.2"), 7777)
	f.SrcIP = netaddr.MustParseIP("10.0.0.1")
	f.SrcPort = 40000
	in := pf.Input{Flow: f, Src: respWith(f, map[string]string{
		"name": "research-app", "app-name": "research-app",
		"exe-hash": hash, "requirements": reqs, "req-sig": signature,
	})}
	return policy, in
}
