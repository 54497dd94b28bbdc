package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"identxx/internal/daemon"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
)

// procState is one client process slot. The generator kills and revives it
// on revoke_churn; epoch is odd while a transition is under way, so an op
// knows whether its owner's facts were stable for its whole life.
type procState struct {
	pid   atomic.Int64
	alive atomic.Bool
	epoch atomic.Uint32
	flows []int32
}

// rig is one set-up of the system under test: sixteen daemons hosted in this
// process, the real identctl as a child, and two switch channels into it.
type rig struct {
	w   *workload
	u   *universe
	dir string

	hosts   [nHosts]*hostinfo.Host
	daemons [nHosts]*daemon.Daemon
	servers [nHosts]*daemonServer
	procs   [nHosts][procsPerHost]*procState

	ctl       *exec.Cmd
	ctlErr    bytes.Buffer
	ctlOut    sync.WaitGroup
	listen    string
	telemetry string

	gen *generator
	tr  *tracer // nil on an untraced run
}

// daemonServer is what serves one daemon's socket: the production
// daemon.Server, or on a traced run the generator's own loop over the same
// public calls (tracedServer), which can stamp each boundary.
type daemonServer struct {
	addr   string
	closer func() error
}

func (r *rig) buildHosts() error {
	for h := 0; h < nHosts; h++ {
		host := hostinfo.New(fmt.Sprintf("pc%d", h), hostIP(h), hostMAC(h))
		user := host.AddUser("alice", "staff")
		for s := 0; s < nServices; s++ {
			port := netaddr.Port(servicePort0 + s)
			name := serviceName(port)
			p := host.Exec(user, hostinfo.Executable{Path: "/usr/sbin/" + name, Name: name, Version: "1"})
			if err := host.Listen(p.PID, netaddr.ProtoTCP, port); err != nil {
				return err
			}
		}
		for k := 0; k < procsPerHost; k++ {
			ps := &procState{}
			ps.alive.Store(true)
			r.procs[h][k] = ps
		}
		r.hosts[h] = host
	}
	for i := range r.u.flows {
		f := &r.u.flows[i]
		r.procs[f.src][f.proc].flows = append(r.procs[f.src][f.proc].flows, int32(i))
	}
	for h := 0; h < nHosts; h++ {
		for k := 0; k < procsPerHost; k++ {
			if err := r.startProc(h, k); err != nil {
				return err
			}
		}
		r.daemons[h] = daemon.New(r.hosts[h])
	}
	return nil
}

// startProc execs the client process of slot k on host h and opens its flows.
func (r *rig) startProc(h, k int) error {
	host := r.hosts[h]
	user, _ := host.UserByName("alice")
	version := newVersion
	if r.u.oldProc[h] == k {
		version = oldVersion
	}
	p := host.Exec(user, hostinfo.Executable{Path: "/usr/bin/client", Name: "client", Version: version})
	ps := r.procs[h][k]
	ps.pid.Store(int64(p.PID))
	for _, i := range ps.flows {
		if _, err := host.Connect(p.PID, r.u.flows[i].five); err != nil {
			return err
		}
	}
	return nil
}

// writeInputs writes what identctl is given: a policy directory and a
// topology file naming each host's switch, port and daemon address.
func (r *rig) writeInputs() error {
	pol := filepath.Join(r.dir, "policy.d")
	if err := os.MkdirAll(pol, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(pol, "50-bench.control"), []byte(r.w.policy()), 0o644); err != nil {
		return err
	}
	var topo strings.Builder
	for h := 0; h < nHosts; h++ {
		fmt.Fprintf(&topo, "host %s switch %d port %d daemon %s\n",
			hostIP(h), h/hostsPerDP+1, hostPort(h), r.servers[h].addr)
	}
	return os.WriteFile(filepath.Join(r.dir, "hosts.topo"), []byte(topo.String()), 0o644)
}

// startCtl execs identctl on one core and waits until it has printed the
// addresses it bound.
func (r *rig) startCtl(identctl string) error {
	args := []string{
		"-listen", "127.0.0.1:0", "-admin", "", "-telemetry", "127.0.0.1:0", "-telemetry-pprof",
		"-policy", filepath.Join(r.dir, "policy.d"), "-topology", filepath.Join(r.dir, "hosts.topo"),
	}
	cmd := exec.Command(identctl, append(args, r.w.ctlArgs()...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = &r.ctlErr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start identctl: %w", err)
	}
	r.ctl = cmd
	type addrs struct{ listen, telemetry string }
	ready := make(chan addrs, 1)
	r.ctlOut.Add(1)
	go func() {
		defer r.ctlOut.Done()
		var a addrs
		sc := bufio.NewScanner(out)
		for sc.Scan() { // keeps draining until identctl exits, so it never blocks on stdout
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "telemetry on http://"); ok {
				a.telemetry = strings.TrimSuffix(rest, "/metrics")
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a.listen = rest
				ready <- a
			}
		}
		close(ready)
	}()
	select {
	case a, ok := <-ready:
		if !ok || a.telemetry == "" {
			return fmt.Errorf("identctl exited or printed no addresses: %s", r.ctlErr.String())
		}
		r.listen, r.telemetry = a.listen, a.telemetry
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("identctl printed no listen address within 10s: %s", r.ctlErr.String())
	}
}

// dialSwitch attaches as datapath dp: the hello body carries the datapath id.
func dialSwitch(addr string, dp uint64) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], dp)
	if err := openflow.WriteMsg(conn, openflow.Msg{Type: openflow.MsgHello, Body: hello[:]}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := openflow.ReadMsg(conn)
	if err != nil || m.Type != openflow.MsgHello {
		conn.Close()
		return nil, fmt.Errorf("switch %d hello exchange failed: %v", dp, err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, nil
}

// newRig sets the system up to the point where packet-ins can be sent. tr
// is nil on an untraced run.
func newRig(w *workload, u *universe, identctl, workdir string, tr *tracer) (_ *rig, err error) {
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, u: u, dir: dir, tr: tr}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if err := r.buildHosts(); err != nil {
		return nil, err
	}
	for h := 0; h < nHosts; h++ {
		if tr != nil {
			r.servers[h], err = tr.serve(r.daemons[h])
		} else {
			srv := daemon.NewServer(r.daemons[h])
			var addr net.Addr
			if addr, err = srv.Listen("127.0.0.1:0"); err == nil {
				r.servers[h] = &daemonServer{addr: addr.String(), closer: srv.Close}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := r.writeInputs(); err != nil {
		return nil, err
	}
	if err := r.startCtl(identctl); err != nil {
		return nil, err
	}
	r.gen = newGenerator(r, tr)
	for d := 0; d < nDatapaths; d++ {
		conn, err := dialSwitch(r.listen, uint64(d+1))
		if err != nil {
			return nil, err
		}
		r.gen.attach(d, conn)
	}
	return r, nil
}

// close stops identctl and the daemons, waits for both, and removes the
// rig's files. It is safe on a partly built rig.
func (r *rig) close() {
	if r.gen != nil {
		r.gen.close()
	}
	if r.ctl != nil {
		// Stdout reaches EOF when identctl exits; Wait may only be called
		// once the pipe has been read to the end.
		r.ctl.Process.Signal(syscall.SIGTERM)
		drained := make(chan struct{})
		go func() { r.ctlOut.Wait(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(3 * time.Second):
			r.ctl.Process.Kill()
			<-drained
		}
		r.ctl.Wait()
	}
	for _, s := range r.servers {
		if s != nil {
			s.closer()
		}
	}
	if r.tr != nil {
		r.tr.wait()
	}
	os.RemoveAll(r.dir)
}

// answeredEvictions sums the daemons' memo evictions: any at all means the
// universe outgrew a daemon's memo and the run measured an eviction storm.
func (r *rig) answeredEvictions() int64 {
	var n int64
	for _, d := range r.daemons {
		_, ev := d.AnsweredStats()
		n += ev
	}
	return n
}

func (r *rig) daemonCounter(name string) int64 {
	var n int64
	for _, d := range r.daemons {
		n += d.Counters.Get(name)
	}
	return n
}
