// Package hostinfo simulates the end-host operating system state the
// ident++ daemon reads: users and their groups, running processes and the
// executables behind them, listening sockets, and active connections. The
// paper's daemon "uses the 5-tuple in the query packet to find the process
// ID and user ID associated with the flow using techniques similar to lsof"
// (§3.5); OwnerOf is that lookup.
//
// This is the substitution for real enterprise hosts: the observable
// surface (what an lsof walk plus /etc state would yield) is preserved, and
// tests can construct any configuration of it, including adversarial ones.
package hostinfo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// User is an account on a host.
type User struct {
	Name   string
	UID    int
	Groups []string
}

// InGroup reports whether the user belongs to the named group.
func (u *User) InGroup(g string) bool {
	for _, x := range u.Groups {
		if x == g {
			return true
		}
	}
	return false
}

// Executable describes an on-disk program image. Hash stands in for the
// "hash of the executable" key the paper ships to controllers.
type Executable struct {
	Path    string
	Name    string
	Version string
	Vendor  string
	Type    string
}

// Hash returns a deterministic content hash for the executable; in the
// simulation the image content is a function of path+version+vendor, so
// upgrading an executable changes its hash as it would on a real disk.
func (e Executable) Hash() string {
	h := sha256.Sum256([]byte(e.Path + "\x00" + e.Version + "\x00" + e.Vendor))
	return hex.EncodeToString(h[:16])
}

// Process is a running instance of an executable owned by a user.
type Process struct {
	PID  int
	User *User
	Exe  Executable
}

// ErrPortInUse is returned by Listen for an already-bound port.
var ErrPortInUse = fmt.Errorf("hostinfo: port in use")

// Host is one end-host's OS view. All methods are safe for concurrent use.
type Host struct {
	Name string
	IP   netaddr.IP
	MAC  netaddr.MAC

	mu        sync.RWMutex
	users     map[string]*User
	procs     map[int]*Process
	listeners map[Listener]int  // bound port -> pid
	conns     map[flow.Five]int // active outbound/accepted flows -> pid
	patches   []string          // installed OS patches (Figure 8)
	watchers  []func(Change)    // change listeners (AddChangeListener)
	nextPID   int
	nextUID   int
	nextPort  netaddr.Port
}

// New creates a host with the given name and addresses.
func New(name string, ip netaddr.IP, mac netaddr.MAC) *Host {
	return &Host{
		Name:      name,
		IP:        ip,
		MAC:       mac,
		users:     make(map[string]*User),
		procs:     make(map[int]*Process),
		listeners: make(map[Listener]int),
		conns:     make(map[flow.Five]int),
		nextPID:   100,
		nextUID:   1000,
		nextPort:  32768,
	}
}

// Change scopes one OS-state mutation for change listeners. Flows names
// the flows whose query answers can have changed. Listeners names the
// listening sockets that were bound or released, or whose owner changed:
// the answer for every destination-side flow to one of them — flows the host
// never tracked in conns, resolved by OwnerOf's listener fallback — can have
// changed. Gone names the processes that exited or were replaced
// copy-on-write (SetUserGroups): nothing is answered from them again. All
// marks mutations whose blast radius the host cannot enumerate (a patch
// install changes every answer) — the listener must then re-derive
// everything it has asserted. The scope keeps the common churn (connections
// opening and closing, processes exiting, listeners binding) O(affected) on
// the daemon side instead of O(everything-remembered).
type Change struct {
	Flows     []flow.Five
	Listeners []Listener
	Gone      []*Process
	All       bool
}

// Listener names one listening socket: a protocol and a local port.
type Listener struct {
	Proto netaddr.Proto
	Port  netaddr.Port
}

// AddChangeListener registers fn to be called — outside the host's lock,
// on the mutating goroutine — after any OS-state change that can alter
// the answer to a flow-ownership or fact query: a process exiting, a flow
// opening or closing, a listener binding, a user logging out or changing
// groups, a patch installing. Listeners must not mutate the host
// synchronously from the callback.
func (h *Host) AddChangeListener(fn func(Change)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.watchers = append(h.watchers, fn)
}

// notify invokes the registered change listeners. Callers must NOT hold
// h.mu: listeners re-enter the host's read side (OwnerOf) to re-derive
// facts.
func (h *Host) notify(ch Change) {
	h.mu.RLock()
	ws := h.watchers
	h.mu.RUnlock()
	for _, fn := range ws {
		fn(ch)
	}
}

// scopeOfPIDLocked adds to ch the change scope of removing or replacing
// pid: its tracked flows, the listeners it owns (the destination flows they
// answer for are not in conns) and the process itself.
func (h *Host) scopeOfPIDLocked(pid int, ch Change) Change {
	if p := h.procs[pid]; p != nil {
		ch.Gone = append(ch.Gone, p)
	}
	for l, owner := range h.listeners {
		if owner == pid {
			ch.Listeners = append(ch.Listeners, l)
		}
	}
	for f, owner := range h.conns {
		if owner == pid {
			ch.Flows = append(ch.Flows, f)
		}
	}
	return ch
}

// AddUser creates an account. The first group, if any, is the primary group.
func (h *Host) AddUser(name string, groups ...string) *User {
	h.mu.Lock()
	defer h.mu.Unlock()
	u := &User{Name: name, UID: h.nextUID, Groups: groups}
	h.nextUID++
	h.users[name] = u
	return u
}

// AddSystemUser creates a privileged account with UID below 1000 —
// the paper's "it is more difficult to gain access as a super-user" hosts
// distinguish these.
func (h *Host) AddSystemUser(name string, groups ...string) *User {
	h.mu.Lock()
	defer h.mu.Unlock()
	u := &User{Name: name, UID: len(h.users), Groups: groups}
	h.users[name] = u
	return u
}

// UserByName returns a user account.
func (h *Host) UserByName(name string) (*User, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	u, ok := h.users[name]
	return u, ok
}

// Exec starts a process running exe as user.
func (h *Host) Exec(user *User, exe Executable) *Process {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := &Process{PID: h.nextPID, User: user, Exe: exe}
	h.nextPID++
	h.procs[p.PID] = p
	return p
}

// Kill terminates a process, releasing its sockets and connections.
func (h *Host) Kill(pid int) {
	h.mu.Lock()
	ch := h.scopeOfPIDLocked(pid, Change{})
	h.killLocked(pid)
	h.mu.Unlock()
	h.notify(ch)
}

func (h *Host) killLocked(pid int) {
	delete(h.procs, pid)
	for k, owner := range h.listeners {
		if owner == pid {
			delete(h.listeners, k)
		}
	}
	for k, owner := range h.conns {
		if owner == pid {
			delete(h.conns, k)
		}
	}
}

// Logout terminates every process the named user owns — the session
// ending. The account itself survives (logging out is not deprovisioning);
// what changes is that no flow can resolve to this user any more, which is
// exactly the fact the revocation plane must propagate.
func (h *Host) Logout(name string) {
	h.mu.Lock()
	u := h.users[name]
	var ch Change
	if u != nil {
		for pid, p := range h.procs {
			if p.User == u || p.User.Name == name {
				ch = h.scopeOfPIDLocked(pid, ch)
				h.killLocked(pid)
			}
		}
	}
	h.mu.Unlock()
	if u != nil {
		h.notify(ch)
	}
}

// SetUserGroups replaces the named user's group memberships — an
// administrator moving an account between roles. The user and the
// processes referring to it are replaced copy-on-write, never mutated:
// readers that resolved a process before the change keep a consistent
// (stale) view, and the change listeners propagate the new one.
func (h *Host) SetUserGroups(name string, groups ...string) bool {
	h.mu.Lock()
	old, ok := h.users[name]
	if !ok {
		h.mu.Unlock()
		return false
	}
	nu := &User{Name: old.Name, UID: old.UID, Groups: groups}
	h.users[name] = nu
	var ch Change
	for pid, p := range h.procs {
		if p.User == old {
			ch = h.scopeOfPIDLocked(pid, ch)
			h.procs[pid] = &Process{PID: p.PID, User: nu, Exe: p.Exe}
		}
	}
	h.mu.Unlock()
	h.notify(ch)
	return true
}

// Listen binds a process to a local port. Binding below 1024 requires a
// UID < 1000, mirroring the superuser-endorsement convention §5.4 discusses.
func (h *Host) Listen(pid int, proto netaddr.Proto, port netaddr.Port) error {
	h.mu.Lock()
	p, ok := h.procs[pid]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("hostinfo: no such process %d", pid)
	}
	if port < 1024 && p.User.UID >= 1000 {
		h.mu.Unlock()
		return fmt.Errorf("hostinfo: pid %d (uid %d) may not bind privileged port %d",
			pid, p.User.UID, port)
	}
	k := Listener{proto, port}
	if _, busy := h.listeners[k]; busy {
		h.mu.Unlock()
		return fmt.Errorf("%w: %s/%d", ErrPortInUse, proto, port)
	}
	h.listeners[k] = pid
	h.mu.Unlock()
	// A fresh listener changes the answer for destination-side flows the
	// host was never tracking (the OwnerOf listener fallback): every flow to
	// this port, and no other.
	h.notify(Change{Listeners: []Listener{k}})
	return nil
}

// Connect registers an outbound flow owned by a process and returns the
// flow with an allocated ephemeral source port. The supplied five-tuple's
// SrcPort is used when non-zero.
func (h *Host) Connect(pid int, f flow.Five) (flow.Five, error) {
	h.mu.Lock()
	if _, ok := h.procs[pid]; !ok {
		h.mu.Unlock()
		return f, fmt.Errorf("hostinfo: no such process %d", pid)
	}
	if f.SrcPort == 0 {
		f.SrcPort = h.allocPortLocked()
	}
	f.SrcIP = h.IP
	h.conns[f] = pid
	h.mu.Unlock()
	h.notify(Change{Flows: []flow.Five{f}})
	return f, nil
}

// Close removes a registered flow.
func (h *Host) Close(f flow.Five) {
	h.mu.Lock()
	delete(h.conns, f)
	h.mu.Unlock()
	h.notify(Change{Flows: []flow.Five{f}})
}

func (h *Host) allocPortLocked() netaddr.Port {
	for {
		p := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 32768
		}
		if _, busy := h.listeners[Listener{netaddr.ProtoTCP, p}]; !busy {
			return p
		}
	}
}

// Role distinguishes which end of a flow this host is when resolving
// ownership.
type Role int

// Roles for OwnerOf.
const (
	// RoleAuto infers the role from the flow's addresses.
	RoleAuto Role = iota
	RoleSource
	RoleDestination
)

// OwnerOf resolves the process responsible for a flow, the daemon's
// lsof-style lookup (§3.5). For the source end it matches a registered
// connection exactly; for the destination end it falls back to the listener
// on the flow's destination port, covering "a destination that has yet to
// accept a connection".
func (h *Host) OwnerOf(f flow.Five, role Role) (*Process, bool) {
	p, _, ok := h.owner(f, role)
	return p, ok
}

// ResolveOwner is OwnerOf with the role inferred from the flow's addresses,
// and says whether the owner was found through the listener table: then
// every flow to that listener that no connection claims resolves to it.
func (h *Host) ResolveOwner(f flow.Five) (p *Process, viaListener, ok bool) {
	return h.owner(f, RoleAuto)
}

// ListenerOf returns the process listening on port over proto.
func (h *Host) ListenerOf(proto netaddr.Proto, port netaddr.Port) (*Process, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	pid, ok := h.listeners[Listener{proto, port}]
	if !ok {
		return nil, false
	}
	return h.procs[pid], true
}

func (h *Host) owner(f flow.Five, role Role) (*Process, bool, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if role == RoleAuto {
		switch h.IP {
		case f.SrcIP:
			role = RoleSource
		case f.DstIP:
			role = RoleDestination
		default:
			return nil, false, false
		}
	}
	if role == RoleSource {
		if pid, ok := h.conns[f]; ok {
			return h.procs[pid], false, true
		}
		return nil, false, false
	}
	// Destination: a connection registered under the flow as the sender
	// names it wins; otherwise consult the listener table.
	if pid, ok := h.conns[f]; ok {
		return h.procs[pid], false, true
	}
	if pid, ok := h.listeners[Listener{f.Proto, f.DstPort}]; ok {
		return h.procs[pid], true, true
	}
	return nil, false, false
}

// InstallPatch records an installed OS patch id (e.g. "MS08-067").
func (h *Host) InstallPatch(id string) {
	h.mu.Lock()
	for _, p := range h.patches {
		if p == id {
			h.mu.Unlock()
			return
		}
	}
	h.patches = append(h.patches, id)
	sort.Strings(h.patches)
	h.mu.Unlock()
	h.notify(Change{All: true})
}

// Patches returns the installed patch ids as the space-joined token list
// the `includes` predicate consumes.
func (h *Host) Patches() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return strings.Join(h.patches, " ")
}
