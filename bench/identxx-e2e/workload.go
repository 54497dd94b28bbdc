package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// The network every workload runs on: sixteen hosts, eight behind each of
// two switches, every host running eight client processes and five
// services. Flows stay inside one datapath, so a switch channel sees a
// self-contained half of the universe.
const (
	nHosts       = 16
	hostsPerDP   = 8
	nDatapaths   = nHosts / hostsPerDP
	procsPerHost = 8
	nServices    = 5
	servicePort0 = 5060
	// deniedPort is the one service (httpd) the class_hit and policy_large
	// policies refuse.
	deniedPort = servicePort0 + nServices - 1
	// oldVersion is what one client process in eight runs; the key-dependent
	// policies block clients below version 200.
	oldVersion = "150"
	newVersion = "210"
)

// flowSpec is one member of the fixed flow universe.
type flowSpec struct {
	five   flow.Five
	src    int // source host index
	dst    int // destination host index
	proc   int // client process slot on the source host
	dp     int // datapath index (0 or 1)
	inPort uint16
}

// universe is everything a workload derives from -seed: the flows, the
// order each switch channel cycles through its half of them, which client
// process per host is the old version, and the order processes are killed in
// on revoke_churn. identctl never sees the seed, only files and packets.
type universe struct {
	flows   []flowSpec
	order   [nDatapaths][]int32 // flow indices, one seeded cycle per channel
	oldProc [nHosts]int
	kills   []int // (host*procsPerHost + slot) in kill order
}

func hostIP(h int) netaddr.IP   { return netaddr.IPv4(10, 0, byte(h/hostsPerDP+1), byte(h%hostsPerDP+1)) }
func hostMAC(h int) netaddr.MAC { return netaddr.MAC(0x020000000000 | uint64(h+1)) }
func hostPort(h int) uint16     { return uint16(h%hostsPerDP + 1) }
func serviceName(port netaddr.Port) string {
	if port == deniedPort {
		return "httpd"
	}
	return fmt.Sprintf("svc%d", int(port)-servicePort0)
}

// newUniverse builds nFlows flows (a multiple of nHosts*procsPerHost), the
// same for the same seed. Every host sources nFlows/16 of them, split evenly
// over its client processes, its seven datapath neighbours and the five
// service ports, so the pass/deny mix and the per-daemon load are the same
// for every seed and only the assignment moves.
func newUniverse(seed int64, nFlows int) (*universe, error) {
	if nFlows <= 0 || nFlows%(nHosts*procsPerHost) != 0 {
		return nil, fmt.Errorf("flow count %d is not a positive multiple of %d", nFlows, nHosts*procsPerHost)
	}
	rng := rand.New(rand.NewSource(seed))
	perHost := nFlows / nHosts
	if perHost > 65536-32768 {
		return nil, fmt.Errorf("flow count %d needs more than the ephemeral port range per host", nFlows)
	}
	u := &universe{flows: make([]flowSpec, 0, nFlows)}
	for h := 0; h < nHosts; h++ {
		u.oldProc[h] = rng.Intn(procsPerHost)
		dsts := make([]int, perHost)
		ports := make([]int, perHost)
		for j := range dsts {
			peer := j % (hostsPerDP - 1)
			if peer >= h%hostsPerDP {
				peer++ // skip self
			}
			dsts[j] = h/hostsPerDP*hostsPerDP + peer
			ports[j] = servicePort0 + j%nServices
		}
		rng.Shuffle(perHost, func(a, b int) { dsts[a], dsts[b] = dsts[b], dsts[a] })
		rng.Shuffle(perHost, func(a, b int) { ports[a], ports[b] = ports[b], ports[a] })
		srcPorts := rng.Perm(perHost)
		for j := 0; j < perHost; j++ {
			u.flows = append(u.flows, flowSpec{
				five: flow.Five{
					SrcIP: hostIP(h), DstIP: hostIP(dsts[j]), Proto: netaddr.ProtoTCP,
					SrcPort: netaddr.Port(32768 + srcPorts[j]), DstPort: netaddr.Port(ports[j]),
				},
				src: h, dst: dsts[j], proc: j % procsPerHost,
				dp: h / hostsPerDP, inPort: hostPort(h),
			})
		}
	}
	for i, f := range u.flows {
		u.order[f.dp] = append(u.order[f.dp], int32(i))
	}
	for d := range u.order {
		o := u.order[d]
		rng.Shuffle(len(o), func(a, b int) { o[a], o[b] = o[b], o[a] })
	}
	u.kills = rng.Perm(nHosts * procsPerHost)
	return u, nil
}

// workload is one traffic mix: the policy identctl loads, the flags it runs
// with, and the verdict every flow must get, fixed here by construction and
// never by asking the policy engine.
type workload struct {
	name   string
	why    string
	policy func() string
	// cacheTTL and megaflow are identctl's -cache-ttl and -megaflow.
	cacheTTL time.Duration
	megaflow bool
	// expectPass is the verdict while the flow's owner is alive.
	expectPass func(u *universe, f *flowSpec) bool
	// wireQueries is how many daemon queries one decision may cost once warm.
	wireQueries int
	churn       bool // kill and revive client processes beside the reads
}

// ctlArgs are the flags identctl runs the workload with, beyond the
// addresses and files every workload gets.
func (w *workload) ctlArgs() []string {
	var args []string
	if w.cacheTTL > 0 {
		args = append(args, "-cache-ttl", w.cacheTTL.String())
	}
	if w.megaflow {
		args = append(args, "-megaflow")
	}
	return args
}

const lanTable = "table <lan> { 10.0.0.0/16 }\n"

// keyPolicy is the three-rule policy of setup_miss and revoke_churn: it
// reads @src[name], @dst[name] and @src[version], so every decision needs
// both daemons.
func keyPolicy() string {
	return lanTable +
		"services = \"{ svc0 svc1 svc2 svc3 httpd }\"\n" +
		"block all\n" +
		"pass from <lan> to <lan> with eq(@src[name], client) with member(@dst[name], $services) keep state\n" +
		"block all with eq(@src[name], client) with lt(@src[version], 200)\n"
}

// classPolicy reads only @dst[name], so a verdict widens to the class
// (destination host, service port): 16 × 5 = 80 classes.
func classPolicy() string {
	return "services = \"{ svc0 svc1 svc2 svc3 }\"\n" +
		"block all\n" +
		"pass all with member(@dst[name], $services) keep state\n"
}

// largeRules is the size of the policy_large policy.
const largeRules = 2000

// largePolicy is 2000 header-only rules; the only one that matches the
// universe is the last, so every decision scans the whole program.
func largePolicy() string {
	var b strings.Builder
	b.WriteString(lanTable)
	b.WriteString("block all\n")
	for i := 0; i < largeRules-2; i++ {
		fmt.Fprintf(&b, "block from 172.16.%d.%d to any port %d\n", i/250, i%250+1, 20000+i)
	}
	fmt.Fprintf(&b, "pass from <lan> to <lan> port %d-%d keep state\n", servicePort0, deniedPort-1)
	return b.String()
}

func newVersionOnly(u *universe, f *flowSpec) bool { return u.oldProc[f.src] != f.proc }
func allowedPortOnly(_ *universe, f *flowSpec) bool {
	return f.five.DstPort != deniedPort
}

var workloads = []workload{
	{
		name:        "setup_miss",
		why:         "key-dependent policy, no cache: every packet-in costs two daemon round trips, so query, wire and daemon do the work",
		policy:      keyPolicy,
		expectPass:  newVersionOnly,
		wireQueries: 2,
	},
	{
		name:       "class_hit",
		why:        "megaflow cache over 80 classes: no query and no evaluation after the founders, so core, openflow and syscalls are undiluted",
		cacheTTL:   10 * time.Minute,
		megaflow:   true,
		policy:     classPolicy,
		expectPass: allowedPortOnly,
	},
	{
		name:       "policy_large",
		why:        "2000 header-only rules, matching rule last: the pre-pass decides without a query, so pf does the work",
		policy:     largePolicy,
		expectPass: allowedPortOnly,
	},
	{
		name:        "revoke_churn",
		why:         "setup_miss with processes killed and revived beside the reads: what revocation costs setups, and the safety window",
		policy:      keyPolicy,
		expectPass:  newVersionOnly,
		wireQueries: 2,
		churn:       true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}
