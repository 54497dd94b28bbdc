// trust-delegation reenacts Figures 6-7: a third-party security company
// ("Secur") publishes signed firewall rules for applications; the
// administrator's whole policy is "trust Secur's key". Users run whatever
// Secur has vetted — here thunderbird, which Secur's rules confine to
// email servers.
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

// The administrator's rule ships as a real .control file (checked by
// CI's pfcheck pass); only the trusted key is injected at startup, the
// way a deployment would append a site-local dict override.
//
//go:embed 30-secur.control
var securControl string

func main() {
	securPub, securPriv := sig.MustGenerateKey()

	// Figure 6: Secur's signed per-application rule file, shipped to
	// end-hosts with the software.
	requirements := "block all pass from any with eq(@src[name], thunderbird) to any with eq(@dst[type], email-server)"
	signature := sig.Sign(securPriv,
		workload.Thunderbird.Exe().Hash(), "thunderbird", requirements)
	thunderbirdConf := fmt.Sprintf(`
@app /usr/bin/thunderbird {
	name : thunderbird
	type : email-client
	rule-maker : Secur
	requirements : %s
	req-sig : %s
}
`, requirements, signature)

	// Figure 7: the administrator's rule — anything Secur approved runs
	// under Secur's rules. The rule file is static; the deployment's real
	// key arrives as a dict override in a later fragment (later
	// definitions win under §3.4 concatenation).
	policy, err := compileWithKey(securControl, securPub)
	if err != nil {
		panic(err)
	}

	n := netsim.New()
	defer n.Close()
	sw := n.AddSwitch("office", 0)
	desktop := n.AddHost("desktop", netaddr.MustParseIP("10.0.0.10"))
	mail := n.AddHost("mail", netaddr.MustParseIP("10.0.0.25"))
	web := n.AddHost("web", netaddr.MustParseIP("10.0.0.80"))
	for _, h := range []*netsim.Host{desktop, mail, web} {
		n.ConnectHost(h, sw)
	}
	carol := workload.Populate(desktop, "carol", []string{"users"}, workload.Thunderbird)
	workload.Populate(mail, "postmaster", nil, workload.SMTPD)
	workload.Populate(web, "webmaster", nil, workload.HTTPD)

	cf, err := daemon.ParseConfig("thunderbird.conf", thunderbirdConf)
	if err != nil {
		panic(err)
	}
	desktop.Daemon.InstallConfig(cf, true)

	ctl := n.Controller(core.Config{Name: "office", Policy: policy}, sw)

	try := func(desc string, dst *netsim.Host, port netaddr.Port) {
		dst.ClearReceived()
		if err := carol.StartFlow("thunderbird", dst.IP(), port); err != nil {
			panic(err)
		}
		n.Run(0)
		verdict := "BLOCKED"
		if dst.ReceivedCount() > 0 {
			verdict = "delivered"
		}
		fmt.Printf("%-52s %s\n", desc, verdict)
	}

	try("thunderbird -> mail:25 (Secur's rules allow email)", mail, 25)
	try("thunderbird -> web:80 (not an email server)", web, 80)

	fmt.Printf("\ndecisions: %s\n", ctl.Counters)
	fmt.Println("\nThe administrator never mentioned thunderbird: dict <pubkeys> { Secur : ... } is the entire trust decision.")
}

// compileWithKey compiles the static rule file plus a generated dict
// fragment carrying the deployment's real public key; the fragment is
// compiled after the rule file, so its <pubkeys> entry wins.
func compileWithKey(control string, pub sig.PublicKey) (*pf.Policy, error) {
	base, err := pf.Parse("30-secur.control", control)
	if err != nil {
		return nil, err
	}
	keys, err := pf.Parse("90-keys.control",
		fmt.Sprintf("dict <pubkeys> { Secur : %s }", pub))
	if err != nil {
		return nil, err
	}
	return pf.Compile(base, keys)
}
