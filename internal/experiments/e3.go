package experiments

import (
	"fmt"
	"io"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/sig"
	"identxx/internal/workload"
)

// researchRequirements is Figure 4's rule set: "research-apps only talk to
// each other".
const researchRequirements = `block all pass all with eq(@src[name], research-app) with eq(@dst[name], research-app)`

// buildResearchDaemonConfig renders the Figure 4 daemon configuration for
// the research application, with a live signature over the tuple Figure 5's
// verify call checks: (exe-hash, app-name, requirements).
func buildResearchDaemonConfig(priv sig.PrivateKey, requirements string) string {
	hash := workload.ResearchApp.Exe().Hash()
	signature := sig.Sign(priv, hash, "research-app", requirements)
	return fmt.Sprintf(`
@app /usr/bin/research-app {
	name : research-app
	# research-apps only talk to each other
	requirements : %s
	req-sig : %s
}
`, requirements, signature)
}

// fig5Policy renders Figure 5's controller rule with the real public key.
func fig5Policy(pub sig.PublicKey) string {
	return fmt.Sprintf(`
table <research-machines> { 10.1.0.0/16 }
table <production-machines> { 10.2.0.0/16 }
dict <pubkeys> { \
	research : %s \
}
block all
# Allow only researchers to run applications
# and only access their own machines.
# Let researchers specify what their apps need.
pass from <research-machines> \
     with member(@src[groupID], research) \
     to !<production-machines> \
     with member(@dst[groupID], research) \
     with allowed(@dst[requirements]) \
     with verify(@dst[req-sig], \
                 @pubkeys[research], \
                 @dst[exe-hash], \
                 @dst[app-name], \
                 @dst[requirements])
`, pub)
}

type researchNet struct {
	n           *netsim.Network
	ctl         *core.Controller
	r1, r2      *workload.Station
	prod        *workload.Station
	researchPub sig.PublicKey
}

func buildResearch(requirements string, tamper func(cfg string) string) *researchNet {
	pub, priv := sig.MustGenerateKey()
	n := netsim.New()
	sw := n.AddSwitch("lab", 0)

	h1 := n.AddHost("r1", netaddr.MustParseIP("10.1.0.1"))
	h2 := n.AddHost("r2", netaddr.MustParseIP("10.1.0.2"))
	hp := n.AddHost("prod", netaddr.MustParseIP("10.2.0.1"))
	n.ConnectHost(h1, sw)
	n.ConnectHost(h2, sw)
	n.ConnectHost(hp, sw)

	rn := &researchNet{n: n, researchPub: pub}
	rn.r1 = workload.Populate(h1, "ryan", []string{"research"}, workload.ResearchApp)
	rn.r2 = workload.Populate(h2, "jad", []string{"research"}, workload.ResearchApp)
	// Production also runs the research binary (e.g. someone copied it), but
	// its user is not in the research group and the machine is in the
	// production table.
	rn.prod = workload.Populate(hp, "ops", []string{"production"}, workload.ResearchApp)

	cfgText := buildResearchDaemonConfig(priv, requirements)
	if tamper != nil {
		cfgText = tamper(cfgText)
	}
	for _, st := range []*workload.Station{rn.r1, rn.r2, rn.prod} {
		cf, err := daemon.ParseConfig("research-app.conf", cfgText)
		must(err)
		st.Host.Daemon.InstallConfig(cf, false) // user-writable config (§3.5)
	}
	// The research app listens on its port on every machine.
	for _, st := range []*workload.Station{rn.r1, rn.r2, rn.prod} {
		must(st.Host.Info.Listen(st.Proc["research-app"].PID, netaddr.ProtoTCP, workload.ResearchApp.DstPort))
	}

	policy, err := pf.LoadSources(map[string]string{"30-research.control": fig5Policy(pub)})
	must(err)
	rn.ctl = n.Controller(core.Config{Name: "research", Policy: policy}, sw)
	return rn
}

func (rn *researchNet) try(src, dst *workload.Station) bool {
	dst.Host.ClearReceived()
	must(src.StartFlow("research-app", dst.Host.IP(), workload.ResearchApp.DstPort))
	rn.n.Run(0)
	return dst.Host.ReceivedCount() > 0
}

// RunE3 reproduces Figures 3-5: delegation to users. A researcher signs her
// application's network requirements; the controller checks the signature
// (verify) and the requirements themselves (allowed) without the
// administrator ever writing an application-specific rule. Tampered
// requirements, unsigned binaries, wrong groups, production targets, and
// revoked keys must all fail closed.
func RunE3(w io.Writer) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "Figures 3-5: delegation to users via signed application requirements",
		Header: []string{"scenario", "paper-expects", "measured"},
	}
	var ck checker
	row := func(desc, expected string, delivered bool) {
		got := "block"
		if delivered {
			got = "pass"
		}
		t.AddRow(desc, expected, ck.cell(expected, got))
	}

	// Honest setup: research-app between researchers passes.
	rn := buildResearch(researchRequirements, nil)
	defer rn.n.Close()
	row("research-app r1->r2 (signed, both researchers)", "pass", rn.try(rn.r1, rn.r2))
	// Production machine is excluded by the to !<production-machines> clause.
	row("research-app r1->prod (production excluded)", "block", rn.try(rn.r1, rn.prod))

	// Requirements tampered after signing: verify fails.
	rnTampered := buildResearch(researchRequirements, func(cfg string) string {
		return replaceOnce(cfg, "block all pass all", "pass all pass all")
	})
	defer rnTampered.n.Close()
	row("tampered requirements (signature mismatch)", "block", rnTampered.try(rnTampered.r1, rnTampered.r2))

	// Requirements that do not admit the flow: allowed() fails even though
	// the signature is valid.
	rnNarrow := buildResearch(`block all pass all with eq(@src[name], other-app)`, nil)
	defer rnNarrow.n.Close()
	row("valid signature but requirements deny the flow", "block", rnNarrow.try(rnNarrow.r1, rnNarrow.r2))

	// Revocation: the administrator replaces the policy with an empty
	// pubkeys dictionary; existing cached flows are flushed too.
	rnRevoked := buildResearch(researchRequirements, nil)
	defer rnRevoked.n.Close()
	if !rnRevoked.try(rnRevoked.r1, rnRevoked.r2) {
		t.Note("revocation precondition failed: honest flow did not pass")
	}
	otherPub, _ := sig.MustGenerateKey()
	newPolicy, err := pf.LoadSources(map[string]string{"30-research.control": fig5Policy(otherPub)})
	must(err)
	rnRevoked.ctl.SetPolicy(newPolicy)
	row("after key revocation (policy reload + table flush)", "block", rnRevoked.try(rnRevoked.r1, rnRevoked.r2))

	t.Note("%d/%d scenarios match; the administrator's policy names no application — the researcher's signed requirements carry that.", len(t.Rows)-ck.failures, len(t.Rows))
	t.Fprint(w)
	return t
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	panic("experiments: replaceOnce pattern not found")
}
