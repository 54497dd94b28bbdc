package daemon

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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

// scratch is a daemon built from nothing on the world's current state.
func (w *world) scratch() *Daemon {
	s := New(w.h)
	for _, c := range w.configs {
		s.InstallConfig(c.cf, c.system)
	}
	for f, kv := range w.pairs {
		s.ProvideFlowPairs(f, kv...)
	}
	return s
}

// sameAnswer fails t unless got is the answer a daemon built from scratch
// gives about f.
func (w *world) sameAnswer(t *testing.T, what string, f flow.Five, got *wire.Response) {
	t.Helper()
	want := w.scratch().HandleQuery(wire.Query{Flow: f})
	if got.Flow != want.Flow || !reflect.DeepEqual(got.Sections, want.Sections) {
		t.Errorf("%s: answer %+v, a daemon built from scratch answers %+v", what, got.Sections, want.Sections)
	}
}

// TestAnswersFollowEveryChange: for each kind of change that can alter an
// answer, a flow answered before the change is answered after it exactly as
// a daemon built from scratch on the new state answers, and the subscriber
// hears of it in the one update it always has.
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
// re-executed and regrouped and configuration and patches are installed, and
// once everything has stopped every flow the daemon remembers answering is
// remembered with exactly the facts a daemon built from scratch asserts — no
// assertion is left stale and unpublished.
func TestConcurrentAnswersMatchFreshDerivation(t *testing.T) {
	const slots, flowsPerSlot, queriers, queries, changes = 4, 3, 3, 300, 60
	w := newWorld(t)
	dst := netaddr.MustParseIP("10.9.0.2")
	var flows []flow.Five
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
	}
	for slot := 0; slot < slots; slot++ {
		for i := 0; i < flowsPerSlot; i++ {
			flows = append(flows, flow.Five{
				SrcIP: w.h.IP, DstIP: dst, Proto: netaddr.ProtoTCP,
				SrcPort: netaddr.Port(40000 + slot*flowsPerSlot + i), DstPort: 80,
			})
		}
		exec(slot, 1)
	}
	cancel := w.d.Subscribe(func(wire.Update) {})
	defer cancel()

	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queries; i++ {
				w.d.HandleQuery(wire.Query{Flow: flows[rng.Intn(len(flows))]})
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < changes; i++ {
			slot := rng.Intn(slots)
			switch rng.Intn(5) {
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
			}
		}
		// End on the two host-wide changes, so the final state holds
		// answers each of their invalidations is needed for.
		w.installConfig(&ConfigFile{HostPairs: []wire.KV{{Key: "site", Value: "final"}}}, true)
		w.h.InstallPatch("KB-final")
	}()
	wg.Wait()

	scratch := w.scratch()
	w.d.mu.RLock()
	defer w.d.mu.RUnlock()
	if len(w.d.answered) == 0 {
		t.Fatal("the daemon remembers no answer")
	}
	for f, a := range w.d.answered {
		want := flatten(scratch.HandleQuery(wire.Query{Flow: f}).Sections)
		if !reflect.DeepEqual(a.facts, want) {
			t.Errorf("flow %v is remembered with %v, a daemon built from scratch asserts %v", f, a.facts, want)
		}
	}
}
