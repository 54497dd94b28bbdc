// Command identd runs the ident++ end-host daemon on TCP port 783 (§2).
//
// On a real deployment the daemon would walk the local OS (lsof-style,
// §3.5); this binary instead loads a *host specification* describing the
// users, processes, listeners and patches of the host it answers for —
// which is also what makes it deployable in containers and test rigs where
// the interesting state is synthetic. Application key-value configuration
// (@app blocks, Figure 3) loads from -config.
//
// Host specification format (one directive per line, # comments):
//
//	name pc1
//	ip 192.168.0.5
//	patch MS08-067
//	user alice groups users,research
//	proc alice /usr/bin/skype name=skype version=210 vendor=skype.com type=voip
//	listen alice /usr/bin/skype 5060
//	conn alice /usr/bin/skype tcp :40000 > 192.168.1.1:80
//
// Usage:
//
//	identd -listen :783 -host host.spec [-config /etc/identxx] [-cred host.cred]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"identxx/internal/cred"
	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":783", "address to serve ident++ queries on")
	hostSpec := flag.String("host", "", "host specification file (required)")
	configDir := flag.String("config", "", "daemon @app configuration directory (*.conf)")
	credFile := flag.String("cred", "", "credential file from `identctl cred issue` (empty = insecure mode)")
	credReload := flag.Duration("cred-reload", time.Minute, "how often to re-read -cred for rotation (0 disables)")
	telemetryAddr := flag.String("telemetry", "", "HTTP listen address for /metrics, /healthz, /readyz (empty disables)")
	telemetryPprof := flag.Bool("telemetry-pprof", false, "mount /debug/pprof/ on the telemetry listener (requires -telemetry; see docs/operations.md before enabling in production)")
	flag.Parse()
	if *hostSpec == "" {
		fmt.Fprintln(os.Stderr, "identd: -host is required")
		os.Exit(2)
	}
	spec, err := os.ReadFile(*hostSpec)
	if err != nil {
		fatal(err)
	}
	host, err := parseHostSpec(string(spec))
	if err != nil {
		fatal(err)
	}
	d := daemon.New(host)
	if *configDir != "" {
		cf, err := daemon.LoadConfigDir(*configDir)
		if err != nil {
			fatal(err)
		}
		d.InstallConfig(cf, true)
	}
	if *credFile != "" {
		ic, err := cred.LoadFile(*credFile)
		if err != nil {
			fatal(err)
		}
		if ic.Host != host.IP {
			fatal(fmt.Errorf("credential %s is for host %s, this daemon answers for %s", *credFile, ic.Host, host.IP))
		}
		d.SetCredential(ic)
		fmt.Printf("identd: credential loaded, expires %s\n", ic.Expiry.Format(time.RFC3339))
		if *credReload > 0 {
			// Rotation loop: the operator drops a fresh credential in place
			// (identctl cred issue -out <same path>) and the daemon re-hellos
			// every live subscription with it before the old one expires — no
			// restart, no resync (the serial does not move).
			go reloadCredential(d, *credFile, *credReload)
		}
	}
	srv := daemon.NewServer(d)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("identd: answering for host %s (%s) on %s\n", host.Name, host.IP, addr)

	if *telemetryAddr != "" {
		ts := telemetry.NewServer()
		telemetry.RegisterDaemon(ts.Registry, d, telemetry.Label{Key: "host", Value: host.IP.String()})
		telemetry.RegisterBuildInfo(ts.Registry, telemetry.Label{Key: "host", Value: host.IP.String()})
		if *telemetryPprof {
			ts.EnablePprof()
		}
		taddr, err := ts.Start(*telemetryAddr)
		if err != nil {
			fatal(err)
		}
		defer ts.Close()
		fmt.Printf("identd: telemetry on http://%s/metrics\n", taddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("identd: shutting down")
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "identd:", err)
	os.Exit(1)
}

// reloadCredential re-reads path every interval and installs the file's
// credential when it changes (detected by the authority signature). A
// transient read or parse error keeps the current credential — expiry is
// the controller's concern, and a daemon with a stale credential simply
// loses its sessions at expiry like any other lapsed host.
func reloadCredential(d *daemon.Daemon, path string, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for range tick.C {
		ic, err := cred.LoadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "identd: credential reload:", err)
			continue
		}
		if cur := d.Credential(); cur != nil && cur.Sig == ic.Sig {
			continue
		}
		d.SetCredential(ic)
		fmt.Printf("identd: credential rotated, expires %s\n", ic.Expiry.Format(time.RFC3339))
	}
}

// parseHostSpec builds a hostinfo.Host from the directive format above.
func parseHostSpec(src string) (*hostinfo.Host, error) {
	name := "host"
	ip := netaddr.MustParseIP("127.0.0.1")
	type procKey struct{ user, path string }
	var host *hostinfo.Host
	procs := map[procKey]*hostinfo.Process{}
	ensureHost := func() *hostinfo.Host {
		if host == nil {
			host = hostinfo.New(name, ip, netaddr.MAC(2))
		}
		return host
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		errf := func(format string, args ...any) error {
			return fmt.Errorf("host spec line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "name":
			if host != nil {
				return nil, errf("name must precede users/procs")
			}
			if len(fields) != 2 {
				return nil, errf("usage: name <hostname>")
			}
			name = fields[1]
		case "ip":
			if host != nil {
				return nil, errf("ip must precede users/procs")
			}
			if len(fields) != 2 {
				return nil, errf("usage: ip <addr>")
			}
			parsed, err := netaddr.ParseIP(fields[1])
			if err != nil {
				return nil, errf("%v", err)
			}
			ip = parsed
		case "patch":
			for _, p := range fields[1:] {
				ensureHost().InstallPatch(p)
			}
		case "user":
			if len(fields) != 2 && (len(fields) != 4 || fields[2] != "groups") {
				return nil, errf("usage: user <name> [groups a,b]")
			}
			var groups []string
			if len(fields) == 4 {
				groups = strings.Split(fields[3], ",")
			}
			ensureHost().AddUser(fields[1], groups...)
		case "proc":
			if len(fields) < 3 {
				return nil, errf("usage: proc <user> <path> [k=v...]")
			}
			u, ok := ensureHost().UserByName(fields[1])
			if !ok {
				return nil, errf("unknown user %q", fields[1])
			}
			exe := hostinfo.Executable{Path: fields[2]}
			for _, kv := range fields[3:] {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					return nil, errf("bad attribute %q", kv)
				}
				k, v := kv[:eq], kv[eq+1:]
				switch k {
				case "name":
					exe.Name = v
				case "version":
					exe.Version = v
				case "vendor":
					exe.Vendor = v
				case "type":
					exe.Type = v
				default:
					return nil, errf("unknown attribute %q", k)
				}
			}
			procs[procKey{fields[1], fields[2]}] = ensureHost().Exec(u, exe)
		case "listen":
			if len(fields) != 4 {
				return nil, errf("usage: listen <user> <path> <port>")
			}
			p, ok := procs[procKey{fields[1], fields[2]}]
			if !ok {
				return nil, errf("no proc %s %s", fields[1], fields[2])
			}
			port, err := netaddr.ParsePort(fields[3])
			if err != nil {
				return nil, errf("%v", err)
			}
			if err := ensureHost().Listen(p.PID, netaddr.ProtoTCP, port); err != nil {
				return nil, errf("%v", err)
			}
		case "conn":
			// conn <user> <path> tcp :sport > dip:dport
			if len(fields) != 7 || fields[3] != "tcp" || fields[4] == "" ||
				fields[4][0] != ':' || fields[5] != ">" {
				return nil, errf("usage: conn <user> <path> tcp :sport > dip:dport")
			}
			p, ok := procs[procKey{fields[1], fields[2]}]
			if !ok {
				return nil, errf("no proc %s %s", fields[1], fields[2])
			}
			sport, err := netaddr.ParsePort(fields[4][1:])
			if err != nil {
				return nil, errf("%v", err)
			}
			colon := strings.LastIndexByte(fields[6], ':')
			if colon < 0 {
				return nil, errf("bad destination %q", fields[6])
			}
			dip, err := netaddr.ParseIP(fields[6][:colon])
			if err != nil {
				return nil, errf("%v", err)
			}
			dport, err := netaddr.ParsePort(fields[6][colon+1:])
			if err != nil {
				return nil, errf("%v", err)
			}
			if _, err := ensureHost().Connect(p.PID, flow.Five{
				DstIP: dip, Proto: netaddr.ProtoTCP, SrcPort: sport, DstPort: dport,
			}); err != nil {
				return nil, errf("%v", err)
			}
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	return ensureHost(), nil
}
