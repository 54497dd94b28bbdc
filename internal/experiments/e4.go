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

// thunderbirdRequirements is Figure 6's rule set, supplied by the
// third-party security company "Secur": thunderbird may only talk to
// email servers.
const thunderbirdRequirements = `block all pass from any with eq(@src[name], thunderbird) to any with eq(@dst[type], email-server)`

// fig6Config renders the Figure 6 daemon configuration with Secur's live
// signature. Note the signed tuple matches Figure 7's verify call:
// (exe-hash, app-name, requirements).
func fig6Config(securPriv sig.PrivateKey, requirements string) string {
	hash := workload.Thunderbird.Exe().Hash()
	signature := sig.Sign(securPriv, hash, "thunderbird", requirements)
	return fmt.Sprintf(`
@app /usr/bin/thunderbird {
	name : thunderbird
	type : email-client
	rule-maker : Secur
	requirements : %s
	req-sig : %s
}
`, requirements, signature)
}

// fig7Policy renders Figure 7's controller rule with Secur's public key:
// any application approved by Secur may run, under Secur's rules.
func fig7Policy(securPub sig.PublicKey) string {
	return fmt.Sprintf(`
dict <pubkeys> { \
	Secur : %s \
}
block all
# Allow users to run any applications approved
# by Secur and following rules Secur provides
pass from any \
     with eq(@src[rule-maker], Secur) \
     with allowed(@src[requirements]) \
     with verify(@src[req-sig], \
                 @pubkeys[Secur], \
                 @src[exe-hash], \
                 @src[app-name], \
                 @src[requirements]) \
     to any
`, securPub)
}

// RunE4 reproduces Figures 6-7: trust delegation to a third party. The
// administrator trusts Secur's signing key; Secur publishes per-application
// firewall rules; users run whatever Secur has vetted. Rules are enforced
// (thunderbird reaches only email servers), signatures gate the delegation,
// and a self-proclaimed rule-maker without Secur's signature gets nothing.
func RunE4(w io.Writer) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Figures 6-7: trust delegation to a third party (Secur)",
		Header: []string{"scenario", "paper-expects", "measured"},
	}
	securPub, securPriv := sig.MustGenerateKey()

	var nets []*netsim.Network
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	build := func(cfgText string) (*netsim.Network, *core.Controller, *workload.Station, *workload.Station, *workload.Station) {
		n := netsim.New()
		nets = append(nets, n)
		sw := n.AddSwitch("office", 0)
		hc := n.AddHost("desktop", netaddr.MustParseIP("10.0.0.10"))
		hm := n.AddHost("mail", netaddr.MustParseIP("10.0.0.25"))
		hw := n.AddHost("web", netaddr.MustParseIP("10.0.0.80"))
		n.ConnectHost(hc, sw)
		n.ConnectHost(hm, sw)
		n.ConnectHost(hw, sw)
		client := workload.Populate(hc, "carol", []string{"users"}, workload.Thunderbird)
		mail := workload.Populate(hm, "postmaster", nil, workload.SMTPD)
		web := workload.Populate(hw, "webmaster", nil, workload.HTTPD)
		cf, err := daemon.ParseConfig("thunderbird.conf", cfgText)
		must(err)
		hc.Daemon.InstallConfig(cf, true) // distributed via the system config dir
		policy, err := pf.LoadSources(map[string]string{"30-secur.control": fig7Policy(securPub)})
		must(err)
		ctl := n.Controller(core.Config{Name: "secur", Policy: policy}, sw)
		return n, ctl, client, mail, web
	}
	try := func(n *netsim.Network, src *workload.Station, dst *workload.Station, port netaddr.Port) bool {
		dst.Host.ClearReceived()
		must(src.StartFlow("thunderbird", dst.Host.IP(), port))
		n.Run(0)
		return dst.Host.ReceivedCount() > 0
	}

	var ck checker
	row := func(desc, expected string, delivered bool) {
		got := "block"
		if delivered {
			got = "pass"
		}
		t.AddRow(desc, expected, ck.cell(expected, got))
	}

	// Honest: Secur-approved thunderbird reaches the email server but not
	// the web server — Secur's rules, not the administrator's, say so.
	n1, _, client, mail, web := build(fig6Config(securPriv, thunderbirdRequirements))
	row("thunderbird -> smtpd (email-server type)", "pass", try(n1, client, mail, 25))
	n2, _, client2, _, web2 := build(fig6Config(securPriv, thunderbirdRequirements))
	_ = web
	row("thunderbird -> httpd (not an email server)", "block", try(n2, client2, web2, 80))

	// An attacker claims rule-maker: Secur with self-made rules but cannot
	// produce Secur's signature.
	_, fakePriv := sig.MustGenerateKey()
	n3, _, client3, mail3, _ := build(fig6Config(fakePriv, `block all pass all`))
	row("forged Secur approval (wrong key)", "block", try(n3, client3, mail3, 25))

	// The binary was replaced after Secur signed: the kernel-derived
	// exe-hash no longer matches the signed tuple. Model by signing a hash
	// of a different version.
	tamperedCfg := fmt.Sprintf(`
@app /usr/bin/thunderbird {
	name : thunderbird
	rule-maker : Secur
	requirements : %s
	req-sig : %s
}
`, thunderbirdRequirements,
		sig.Sign(securPriv, "0000deadbeef0000", "thunderbird", thunderbirdRequirements))
	n4, _, client4, mail4, _ := build(tamperedCfg)
	row("binary replaced after signing (exe-hash mismatch)", "block", try(n4, client4, mail4, 25))

	t.Note("%d/%d scenarios match; the admin's only trust decision is Secur's key in dict <pubkeys>.", len(t.Rows)-ck.failures, len(t.Rows))
	t.Fprint(w)
	return t
}
