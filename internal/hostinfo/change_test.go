package hostinfo

import (
	"sync/atomic"
	"testing"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

func TestChangeListenerFiresOnMutations(t *testing.T) {
	h := newTestHost()
	var fired atomic.Int64
	var lastScope atomic.Value
	h.AddChangeListener(func(ch Change) {
		fired.Add(1)
		lastScope.Store(ch)
	})

	alice := h.AddUser("alice", "users") // no notification: no flow can resolve to a fresh account
	p := h.Exec(alice, skypeExe)         // likewise
	base := fired.Load()

	f, err := h.Connect(p.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060})
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() != base+1 {
		t.Errorf("Connect: fired = %d, want %d", fired.Load(), base+1)
	}
	if ch := lastScope.Load().(Change); ch.All || len(ch.Flows) != 1 || ch.Flows[0] != f {
		t.Errorf("Connect scope = %+v, want exactly the new flow", ch)
	}
	h.Close(f)
	if fired.Load() != base+2 {
		t.Errorf("Close: fired = %d, want %d", fired.Load(), base+2)
	}
	h.Kill(p.PID)
	if fired.Load() != base+3 {
		t.Errorf("Kill: fired = %d, want %d", fired.Load(), base+3)
	}
	h.InstallPatch("MS08-067")
	if fired.Load() != base+4 {
		t.Errorf("InstallPatch: fired = %d, want %d", fired.Load(), base+4)
	}
	if ch := lastScope.Load().(Change); !ch.All {
		t.Errorf("InstallPatch scope = %+v, want All", ch)
	}
	h.InstallPatch("MS08-067") // idempotent re-install: no change, no event
	if fired.Load() != base+4 {
		t.Errorf("repeat InstallPatch fired a change event")
	}
}

func TestLogoutKillsUserProcesses(t *testing.T) {
	h := newTestHost()
	alice := h.AddUser("alice", "users")
	bob := h.AddUser("bob", "users")
	pa := h.Exec(alice, skypeExe)
	pb := h.Exec(bob, skypeExe)
	fa, err := h.Connect(pa.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := h.Connect(pb.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060})
	if err != nil {
		t.Fatal(err)
	}

	h.Logout("alice")
	if _, ok := h.OwnerOf(fa, RoleAuto); ok {
		t.Error("alice's flow still resolves after logout")
	}
	if owner, ok := h.OwnerOf(fb, RoleAuto); !ok || owner.User.Name != "bob" {
		t.Error("bob's flow lost in alice's logout")
	}
	if _, ok := h.UserByName("alice"); !ok {
		t.Error("logout removed the account; it should only end the session")
	}
}

func TestSetUserGroupsCopyOnWrite(t *testing.T) {
	h := newTestHost()
	alice := h.AddUser("alice", "staff")
	p := h.Exec(alice, skypeExe)
	f, err := h.Connect(p.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060})
	if err != nil {
		t.Fatal(err)
	}
	before, ok := h.OwnerOf(f, RoleAuto)
	if !ok {
		t.Fatal("flow did not resolve")
	}

	if !h.SetUserGroups("alice", "contractors") {
		t.Fatal("SetUserGroups failed")
	}
	if h.SetUserGroups("nobody", "x") {
		t.Error("SetUserGroups invented an account")
	}

	after, ok := h.OwnerOf(f, RoleAuto)
	if !ok {
		t.Fatal("flow stopped resolving after group change")
	}
	if !after.User.InGroup("contractors") || after.User.InGroup("staff") {
		t.Errorf("new groups = %v", after.User.Groups)
	}
	// The pre-change view is immutable: copy-on-write, not mutation.
	if !before.User.InGroup("staff") {
		t.Errorf("old process view mutated: %v", before.User.Groups)
	}
	if u, _ := h.UserByName("alice"); u.UID != after.User.UID {
		t.Errorf("UID changed across group change")
	}
}

// TestListenerChangesNameTheirPorts: a bind names the socket it bound, and
// the exit of a listener's owner names its sockets, its connections and
// itself — no host-wide change.
func TestListenerChangesNameTheirPorts(t *testing.T) {
	h := newTestHost()
	var last Change
	h.AddChangeListener(func(ch Change) { last = ch })
	alice := h.AddUser("alice", "users")
	p := h.Exec(alice, skypeExe)
	if err := h.Listen(p.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	if last.All || len(last.Listeners) != 1 || last.Listeners[0] != (Listener{netaddr.ProtoTCP, 5060}) {
		t.Errorf("Listen scope = %+v, want exactly tcp/5060", last)
	}
	f, err := h.Connect(p.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5061})
	if err != nil {
		t.Fatal(err)
	}
	h.Kill(p.PID)
	if last.All || len(last.Listeners) != 1 || len(last.Flows) != 1 || last.Flows[0] != f ||
		len(last.Gone) != 1 || last.Gone[0] != p {
		t.Errorf("Kill scope = %+v, want its listener, its flow and itself", last)
	}
}
