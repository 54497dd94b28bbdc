// research-delegation reenacts Figures 3-5: a researcher signs her
// application's network requirements; the administrator's single rule
// delegates to that signature. No per-application firewall tickets, and
// tampering with the requirements kills the delegation.
package main

import (
	_ "embed"
	"fmt"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/sig"
	"identxx/internal/workload"
)

// The delegation rule ships as a real .control file (checked by CI's
// pfcheck pass); the group's key is appended as a dict override at
// startup — and swapped for revocation.
//
//go:embed 30-research.control
var researchControl string

// compileWithKey compiles the static rule file plus a generated dict
// fragment with the research group's current public key.
func compileWithKey(pub sig.PublicKey) *pf.Policy {
	base, err := pf.Parse("30-research.control", researchControl)
	if err != nil {
		panic(err)
	}
	keys, err := pf.Parse("90-keys.control",
		fmt.Sprintf("dict <pubkeys> { research : %s }", pub))
	if err != nil {
		panic(err)
	}
	p, err := pf.Compile(base, keys)
	if err != nil {
		panic(err)
	}
	return p
}

func main() {
	// The research group's signing key. The public half is the only thing
	// the administrator needs to know about the group's software.
	pub, priv := sig.MustGenerateKey()

	// Figure 4: the researcher writes (and signs) what her app may do.
	requirements := "block all pass all with eq(@src[name], research-app) with eq(@dst[name], research-app)"
	hash := workload.ResearchApp.Exe().Hash()
	signature := sig.Sign(priv, hash, "research-app", requirements)
	daemonConf := fmt.Sprintf(`
@app /usr/bin/research-app {
	name : research-app
	requirements : %s
	req-sig : %s
}
`, requirements, signature)

	// Figure 5: the administrator's rule — researchers may run whatever
	// they have signed, anywhere except production.
	policy := compileWithKey(pub)

	n := netsim.New()
	defer n.Close()
	sw := n.AddSwitch("lab", 0)
	r1 := n.AddHost("lab1", netaddr.MustParseIP("10.1.0.1"))
	r2 := n.AddHost("lab2", netaddr.MustParseIP("10.1.0.2"))
	prod := n.AddHost("prod", netaddr.MustParseIP("10.2.0.1"))
	for _, h := range []*netsim.Host{r1, r2, prod} {
		n.ConnectHost(h, sw)
	}
	st1 := workload.Populate(r1, "ryan", []string{"research"}, workload.ResearchApp)
	st2 := workload.Populate(r2, "jad", []string{"research"}, workload.ResearchApp)
	stP := workload.Populate(prod, "ops", []string{"production"}, workload.ResearchApp)
	for _, st := range []*workload.Station{st1, st2, stP} {
		cf, err := daemon.ParseConfig("research-app.conf", daemonConf)
		if err != nil {
			panic(err)
		}
		st.Host.Daemon.InstallConfig(cf, false)
		if err := st.Host.Info.Listen(st.Proc["research-app"].PID, netaddr.ProtoTCP, 7777); err != nil {
			panic(err)
		}
	}

	ctl := n.Controller(core.Config{Name: "lab", Policy: policy}, sw)

	try := func(desc string, src *workload.Station, dst *netsim.Host) {
		dst.ClearReceived()
		if err := src.StartFlow("research-app", dst.IP(), 7777); err != nil {
			panic(err)
		}
		n.Run(0)
		verdict := "BLOCKED"
		if dst.ReceivedCount() > 0 {
			verdict = "delivered"
		}
		fmt.Printf("%-48s %s\n", desc, verdict)
	}

	try("research-app lab1 -> lab2 (signed delegation)", st1, r2)
	try("research-app lab1 -> prod (production fence)", st1, prod)

	// Revocation: the group's key is withdrawn — the same rule file is
	// recompiled with a different dict override, so signatures under the
	// old key no longer verify. Cached verdicts are flushed with the
	// policy, so the very next packet re-evaluates and fails.
	other, _ := sig.MustGenerateKey()
	ctl.SetPolicy(compileWithKey(other))
	try("research-app lab1 -> lab2 after key revocation", st1, r2)

	fmt.Printf("\ndecisions: %s\n", ctl.Counters)
}
