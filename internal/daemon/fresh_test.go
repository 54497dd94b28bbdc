package daemon

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// world is a daemon and every input it was given: its host, and the
// configuration installs and application pairs in the order they were made,
// so that a daemon built from scratch on the same state can be asked the
// same question.
type world struct {
	h       *hostinfo.Host
	d       *Daemon
	alice   *hostinfo.User
	p       *hostinfo.Process
	five    flow.Five
	configs []struct {
		cf     *ConfigFile
		system bool
	}
	pairs map[flow.Five][]wire.KV
	forge ForgeFunc
}

func newWorld(t *testing.T) *world {
	h, d, p, five := pushHost(t)
	alice, _ := h.UserByName("alice")
	return &world{h: h, d: d, alice: alice, p: p, five: five, pairs: map[flow.Five][]wire.KV{}}
}

func (w *world) installConfig(cf *ConfigFile, system bool) {
	w.d.InstallConfig(cf, system)
	w.configs = append(w.configs, struct {
		cf     *ConfigFile
		system bool
	}{cf, system})
}

func (w *world) providePairs(f flow.Five, kv ...wire.KV) {
	w.d.ProvideFlowPairs(f, kv...)
	w.pairs[f] = append(w.pairs[f], kv...)
}

func (w *world) clearPairs(f flow.Five) {
	w.d.ClearFlowPairs(f)
	delete(w.pairs, f)
}

func (w *world) setForge(f ForgeFunc) {
	w.d.SetForge(f)
	w.forge = f
}

// scratch is a daemon built from nothing on the world's current state.
func (w *world) scratch() *Daemon {
	s := New(w.h)
	for _, c := range w.configs {
		s.InstallConfig(c.cf, c.system)
	}
	for f, kv := range w.pairs {
		s.ProvideFlowPairs(f, kv...)
	}
	s.SetForge(w.forge)
	return s
}

// remote is the peer the world's destination flows come from.
var remote = netaddr.MustParseIP("10.9.0.2")

// newListenerWorld is newWorld with bob's httpd listening on 8080, and five
// a flow to it from a remote host: one the daemon answers at the listener's
// scope.
func newListenerWorld(t *testing.T) *world {
	w := newWorld(t)
	bob := w.h.AddUser("bob", "staff")
	w.p = w.h.Exec(bob, hostinfo.Executable{Path: "/usr/sbin/httpd", Name: "httpd", Version: "2.2"})
	if err := w.h.Listen(w.p.PID, netaddr.ProtoTCP, 8080); err != nil {
		t.Fatal(err)
	}
	w.five = flow.Five{SrcIP: remote, DstIP: w.h.IP, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 8080}
	return w
}

// memoFresh fails t unless every entry of the daemon's memo — flows and
// listener scopes — holds the facts a daemon built from scratch asserts
// now, a scope's at that scope.
func (w *world) memoFresh(t *testing.T) {
	t.Helper()
	scratch := w.scratch()
	w.d.mu.RLock()
	defer w.d.mu.RUnlock()
	for k, a := range w.d.answered {
		q := wire.Query{Flow: k.flow}
		if k.scope.Listener() {
			q.Flow = flow.Five{SrcIP: remote, DstIP: w.h.IP, Proto: k.scope.Proto, SrcPort: 1, DstPort: k.scope.Port}
		}
		want := scratch.HandleQuery(q)
		if k.scope.Listener() && want.Scope != k.scope {
			t.Errorf("scope %v is remembered, a daemon built from scratch answers at %v", k.scope, want.Scope)
		} else if facts := flatten(want.Sections); !reflect.DeepEqual(a.facts, facts) {
			t.Errorf("%+v is remembered with %v, a daemon built from scratch asserts %v", k, a.facts, facts)
		}
	}
}

// sameAnswer fails t unless got is the answer a daemon built from scratch
// gives about f.
func (w *world) sameAnswer(t *testing.T, what string, f flow.Five, got *wire.Response) {
	t.Helper()
	want := w.scratch().HandleQuery(wire.Query{Flow: f})
	if got.Flow != want.Flow || got.Scope != want.Scope || !reflect.DeepEqual(got.Sections, want.Sections) {
		t.Errorf("%s: answer %+v at %v, a daemon built from scratch answers %+v at %v", what, got.Sections, got.Scope, want.Sections, want.Scope)
	}
}

// TestAnswersFollowEveryChange: for each kind of change that can alter an
// answer, a flow answered before the change is answered after it exactly as
// a daemon built from scratch on the new state answers, and the subscriber
// hears of it in the one update it always has — for a source's flow, and for
// a destination answered at its listener's scope (the "listener" cases).
func TestAnswersFollowEveryChange(t *testing.T) {
	skype := "/usr/bin/skype"
	for _, c := range []struct {
		name   string
		before func(w *world) // ahead of the first answer
		change func(w *world)
		want   []wire.Update // Flow, Key, Old, New of each update after the hello
	}{
		{"kill", nil, func(w *world) { w.h.Kill(w.p.PID) },
			[]wire.Update{{Key: wire.KeyAppName, Old: "skype"}}},
		{"logout", nil, func(w *world) { w.h.Logout("alice") },
			[]wire.Update{{Key: wire.KeyAppName, Old: "skype"}}},
		{"user groups", nil, func(w *world) { w.h.SetUserGroups("alice", "contractors") },
			[]wire.Update{{Key: wire.KeyGroupID, Old: "staff", New: "contractors"}}},
		{"exec of a new version", nil, func(w *world) {
			w.h.Kill(w.p.PID)
			p := w.h.Exec(w.alice, hostinfo.Executable{Path: skype, Name: "skype", Version: "211"})
			if _, err := w.h.Connect(p.PID, w.five); err != nil {
				panic(err)
			}
		}, []wire.Update{{Key: wire.KeyAppName, Old: "skype"}, {Key: wire.KeyAppName, New: "skype"}}},
		{"patch", nil, func(w *world) { w.h.InstallPatch("MS08-067") },
			[]wire.Update{{Key: wire.KeyOSPatch, New: "MS08-067"}}},
		{"user config", nil, func(w *world) {
			w.installConfig(&ConfigFile{Apps: []*AppConfig{{Path: skype, Pairs: []wire.KV{{Key: wire.KeyRequirements, Value: "pass from any"}}}}}, false)
		}, []wire.Update{{Key: wire.KeyRequirements, New: "pass from any"}}},
		{"system config", nil, func(w *world) {
			w.installConfig(&ConfigFile{
				HostPairs: []wire.KV{{Key: "site", Value: "bldg-4"}},
				Apps:      []*AppConfig{{Path: skype, Pairs: []wire.KV{{Key: wire.KeyVendor, Value: "skype-inc"}}}},
			}, true)
		}, []wire.Update{{Key: "site", New: "bldg-4"}}},
		{"flow pairs", nil, func(w *world) { w.providePairs(w.five, wire.KV{Key: "initiated-by", Value: "user"}) },
			[]wire.Update{{Key: "initiated-by", New: "user"}}},
		{"flow pairs cleared", func(w *world) { w.providePairs(w.five, wire.KV{Key: "initiated-by", Value: "user"}) },
			func(w *world) { w.clearPairs(w.five) },
			[]wire.Update{{Key: "initiated-by", Old: "user"}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t)
			if c.before != nil {
				c.before(w)
			}
			q := wire.Query{Flow: w.five}
			first := w.d.HandleQuery(q)
			w.sameAnswer(t, "before the change", w.five, first)
			firstSections := first.Clone().Sections

			col := newCollector()
			cancel := w.d.Subscribe(col.fn)
			defer cancel()
			c.change(w)
			w.sameAnswer(t, "after the change", w.five, w.d.HandleQuery(q))
			if !reflect.DeepEqual(first.Sections, firstSections) {
				t.Errorf("the answer given before the change changed after it: %+v, was %+v", first.Sections, firstSections)
			}

			got := col.all()
			hello := got[0].Serial
			got = got[1:]
			if len(got) != len(c.want) {
				t.Fatalf("updates %+v, want %d", got, len(c.want))
			}
			for i, u := range got {
				want := c.want[i]
				want.Flow, want.Serial = w.five, hello+uint64(i)+1
				if u != want {
					t.Errorf("update %d = %+v, want %+v", i, u, want)
				}
			}
		})
	}
	listenerAnswersFollowEveryChange(t)
}

// listenerAnswersFollowEveryChange is TestAnswersFollowEveryChange for a
// destination answered at its listener's scope: for each kind of change that
// can alter what the listener's flows are answered, the flow is answered
// after it as a daemon built from scratch answers it, every memo entry —
// the scope's included — holds what such a daemon asserts, and the
// subscriber hears of it in exactly the updates listed: one at the
// listener's scope wherever the scope was held.
func listenerAnswersFollowEveryChange(t *testing.T) {
	httpd := "/usr/sbin/httpd"
	other := flow.Five{SrcIP: remote, DstIP: netaddr.MustParseIP("10.9.0.1"), Proto: netaddr.ProtoTCP, SrcPort: 40001, DstPort: 8080}
	scope := wire.ListenerScope(netaddr.ProtoTCP, 8080)
	atScope := []wire.Update{{Scope: scope}}
	for _, c := range []struct {
		name   string
		before func(w *world) // ahead of the first answer
		change func(w *world)
		want   func(w *world) []wire.Update // Flow, Scope, Key, Old, New of each update after the hello
	}{
		{"owner killed", nil, func(w *world) { w.h.Kill(w.p.PID) },
			func(*world) []wire.Update { return atScope }},
		{"owner logged out", nil, func(w *world) { w.h.Logout("bob") },
			func(*world) []wire.Update { return atScope }},
		{"owner's groups", nil, func(w *world) { w.h.SetUserGroups("bob", "web") },
			func(*world) []wire.Update { return atScope }},
		{"rebound by another executable", nil, func(w *world) {
			w.h.Kill(w.p.PID)
			bob, _ := w.h.UserByName("bob")
			p := w.h.Exec(bob, hostinfo.Executable{Path: "/usr/sbin/nginx", Name: "nginx", Version: "1"})
			if err := w.h.Listen(p.PID, netaddr.ProtoTCP, 8080); err != nil {
				panic(err)
			}
		}, func(*world) []wire.Update { return atScope }},
		{"listen on another port", nil, func(w *world) {
			bob, _ := w.h.UserByName("bob")
			p := w.h.Exec(bob, hostinfo.Executable{Path: "/usr/sbin/sshd", Name: "sshd"})
			if err := w.h.Listen(p.PID, netaddr.ProtoTCP, 2222); err != nil {
				panic(err)
			}
		}, func(*world) []wire.Update { return nil }},
		{"flow pairs", nil, func(w *world) { w.providePairs(w.five, wire.KV{Key: "initiated-by", Value: "user"}) },
			func(*world) []wire.Update { return atScope }},
		{"pairs on another flow to the port", nil, func(w *world) { w.providePairs(other, wire.KV{Key: "initiated-by", Value: "user"}) },
			func(*world) []wire.Update { return atScope }},
		{"flow pairs cleared", func(w *world) { w.providePairs(w.five, wire.KV{Key: "initiated-by", Value: "user"}) },
			func(w *world) { w.clearPairs(w.five) },
			func(w *world) []wire.Update { return []wire.Update{{Flow: w.five, Key: "initiated-by", Old: "user"}} }},
		{"forge", nil, func(w *world) {
			w.setForge(func(_ wire.Query, honest *wire.Response) *wire.Response {
				honest.Sections[len(honest.Sections)-1].Add(wire.KeyUserID, "root")
				return honest
			})
		}, func(*world) []wire.Update { return atScope }},
		{"config for the listener", nil, func(w *world) {
			w.installConfig(&ConfigFile{Apps: []*AppConfig{{Path: httpd, Pairs: []wire.KV{{Key: wire.KeyRequirements, Value: "pass from any"}}}}}, true)
		}, func(*world) []wire.Update { return atScope }},
		{"patch", nil, func(w *world) { w.h.InstallPatch("MS08-067") },
			func(*world) []wire.Update { return atScope }},
	} {
		t.Run("listener "+c.name, func(t *testing.T) {
			w := newListenerWorld(t)
			if c.before != nil {
				c.before(w)
			}
			q := wire.Query{Flow: w.five}
			first := w.d.HandleQuery(q)
			w.sameAnswer(t, "before the change", w.five, first)
			if (c.before == nil) != first.Scope.Listener() {
				t.Fatalf("answered before the change at %v", first.Scope)
			}
			firstSections := first.Clone().Sections

			col := newCollector()
			cancel := w.d.Subscribe(col.fn)
			defer cancel()
			c.change(w)
			w.memoFresh(t)
			w.sameAnswer(t, "after the change", w.five, w.d.HandleQuery(q))
			w.memoFresh(t)
			if !reflect.DeepEqual(first.Sections, firstSections) {
				t.Errorf("the answer given before the change changed after it: %+v, was %+v", first.Sections, firstSections)
			}

			got := col.all()
			hello := got[0].Serial
			got = got[1:]
			want := c.want(w)
			if len(got) != len(want) {
				t.Fatalf("updates %+v, want %+v", got, want)
			}
			for i, u := range got {
				want[i].Serial = hello + uint64(i) + 1
				if u != want[i] {
					t.Errorf("update %d = %+v, want %+v", i, u, want[i])
				}
			}
		})
	}
}

// TestForgeCannotChangeTheSharedAnswer: a forge hook that rewrites the
// honest response it is handed, in place, changes only what it returns — not
// the answer the process's other flows get, nor a response handed out
// before, nor the honest answer once the hook is gone.
func TestForgeCannotChangeTheSharedAnswer(t *testing.T) {
	w := newWorld(t)
	q := wire.Query{Flow: w.five}
	before := w.d.HandleQuery(q)
	beforeSections := before.Clone().Sections
	w.d.SetForge(func(_ wire.Query, honest *wire.Response) *wire.Response {
		ground := &honest.Sections[len(honest.Sections)-1]
		for i := range ground.Pairs {
			ground.Pairs[i].Value = "forged"
		}
		ground.Add(wire.KeyUserID, "root")
		honest.Sections[0].Source = "forged"
		return honest
	})
	if v, _ := w.d.HandleQuery(q).Latest(wire.KeyUserID); v != "root" {
		t.Fatalf("forged userID = %q, want root", v)
	}
	w.d.SetForge(nil)
	w.sameAnswer(t, "after the forge is removed", w.five, w.d.HandleQuery(q))
	if !reflect.DeepEqual(before.Sections, beforeSections) {
		t.Errorf("a response handed out before the forge changed: %+v, was %+v", before.Sections, beforeSections)
	}
}

// TestConcurrentAnswersMatchFreshDerivation is the push plane's conservation
// law under concurrency: queries run while the host's processes are killed,
// re-executed and regrouped, their listeners released and bound again,
// application pairs given to and taken from flows to them, and
// configuration and patches are installed; once everything has stopped
// every flow and every listener scope the daemon remembers answering is
// remembered with exactly the facts a daemon built from scratch asserts —
// no assertion is left stale and unpublished.
func TestConcurrentAnswersMatchFreshDerivation(t *testing.T) {
	const slots, flowsPerSlot, queriers, queries, changes = 4, 3, 3, 300, 60
	w := newWorld(t)
	var flows, inbound []flow.Five
	pids := make([]int, slots)
	users := []string{"alice", "bob"}
	w.h.AddUser("bob", "staff")
	exec := func(slot, version int) {
		u, _ := w.h.UserByName(users[slot%2])
		p := w.h.Exec(u, hostinfo.Executable{Path: fmt.Sprintf("/usr/bin/app%d", slot), Version: fmt.Sprint(version)})
		pids[slot] = p.PID
		for i := 0; i < flowsPerSlot; i++ {
			if _, err := w.h.Connect(p.PID, flows[slot*flowsPerSlot+i]); err != nil {
				panic(err)
			}
		}
		if err := w.h.Listen(p.PID, netaddr.ProtoTCP, netaddr.Port(8000+slot)); err != nil {
			panic(err)
		}
	}
	for slot := 0; slot < slots; slot++ {
		for i := 0; i < flowsPerSlot; i++ {
			flows = append(flows, flow.Five{
				SrcIP: w.h.IP, DstIP: remote, Proto: netaddr.ProtoTCP,
				SrcPort: netaddr.Port(40000 + slot*flowsPerSlot + i), DstPort: 80,
			})
			inbound = append(inbound, flow.Five{
				SrcIP: remote, DstIP: w.h.IP, Proto: netaddr.ProtoTCP,
				SrcPort: netaddr.Port(50000 + slot*flowsPerSlot + i), DstPort: netaddr.Port(8000 + slot),
			})
		}
		exec(slot, 1)
	}
	var scopeUpdates atomic.Int64
	cancel := w.d.Subscribe(func(u wire.Update) {
		if u.Scope.Listener() {
			scopeUpdates.Add(1)
		}
	})
	defer cancel()

	all := append(append([]flow.Five(nil), flows...), inbound...)
	for _, f := range inbound {
		w.d.HandleQuery(wire.Query{Flow: f}) // every listener's scope held from the start
	}
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queries; i++ {
				w.d.HandleQuery(wire.Query{Flow: all[rng.Intn(len(all))]})
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < changes; i++ {
			slot := rng.Intn(slots)
			switch rng.Intn(7) {
			case 0:
				w.h.Kill(pids[slot])
			case 1:
				w.h.Kill(pids[slot])
				exec(slot, i)
			case 2:
				w.h.SetUserGroups(users[rng.Intn(2)], fmt.Sprintf("group%d", i))
			case 3:
				w.installConfig(&ConfigFile{Apps: []*AppConfig{{
					Path: fmt.Sprintf("/usr/bin/app%d", slot), Pairs: []wire.KV{{Key: "rev", Value: fmt.Sprint(i)}},
				}}}, rng.Intn(2) == 0)
			case 4:
				w.h.InstallPatch(fmt.Sprintf("KB%d", i))
			case 5:
				w.providePairs(inbound[rng.Intn(len(inbound))], wire.KV{Key: "tag", Value: fmt.Sprint(i)})
			case 6:
				w.clearPairs(inbound[rng.Intn(len(inbound))])
			}
		}
		// End on the two host-wide changes, so the final state holds
		// answers each of their invalidations is needed for.
		w.installConfig(&ConfigFile{HostPairs: []wire.KV{{Key: "site", Value: "final"}}}, true)
		w.h.InstallPatch("KB-final")
	}()
	wg.Wait()

	w.d.mu.RLock()
	remembered := len(w.d.answered)
	w.d.mu.RUnlock()
	if remembered == 0 {
		t.Fatal("the daemon remembers no answer")
	}
	if scopeUpdates.Load() == 0 {
		t.Fatal("no update at a listener's scope: the scoped path was not exercised")
	}
	w.memoFresh(t)
}
