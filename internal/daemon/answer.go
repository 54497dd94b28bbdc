package daemon

import (
	"path"
	"strings"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// A daemon answers about every flow a process owns with the same facts: the
// process's user, executable and configuration, and the host's patches. So
// it builds each process's answer once, keeps it in a table keyed by the
// process, and serves every flow of the process from it. hostinfo replaces a
// process copy-on-write whenever its user or executable changes (Exec,
// SetUserGroups), so a changed process is a new key; what can change an
// answer without a new process is a configuration install or a patch
// install, and those empty the table. Connection churn (Connect, Close) and
// listener binds change which process owns a flow, not what a process's
// answer says, and leave the table alone; a process that exits or is
// replaced takes only its own answer with it.
//
// Only two kinds of answer are built per flow: a flow with application pairs
// (ProvideFlowPairs) has them in a section of its own ahead of its process's,
// and while a forge hook is installed every answer is the hook's.
//
// A flow to this host that no connection claims resolves to the process
// listening on its port, and every such flow gets that process's answer: the
// daemon gives it at listener scope (wire.Scope), and a controller may serve
// the listener's next flows from it without asking. It does so only while
// nothing could answer a flow to the port differently — no flow to the port
// has application pairs (narrowed) and no forge hook is installed or being
// installed (unscoped) — and it remembers the answer once per listener, not
// once per flow (push.go).

// procAnswersCap bounds the per-process answer table: a process that exited
// keeps its entry until an invalidation empties the table or an insert past
// the bound evicts it.
const procAnswersCap = 256

// answer is one answer as the wire carries it and as the memo compares it:
// its sections, their facts flattened, and the sections encoded. Nothing in
// an answer is written once newAnswer returns — a process's answer is shared
// by every flow it owns, by those flows' memo entries, by its listeners'
// and by every response HandleQuery returned for them. The scope an answer
// is given at is not part of it: the same process answer is given at flow
// scope to a connection's flow and at listener scope to a flow to its port.
type answer struct {
	sections []wire.Section
	facts    map[string]string // flatten(sections)
	body     []byte            // wire.AppendSections(nil, sections)
}

// newAnswer builds the answer made of secs, which it keeps. The sections'
// capacity is cut to their length, so a response holder that adds a section
// (Response.Augment) appends to a copy instead of into the shared array.
func newAnswer(secs []wire.Section) *answer {
	secs = secs[:len(secs):len(secs)]
	return &answer{sections: secs, facts: flatten(secs), body: wire.AppendSections(nil, secs)}
}

// response returns the answer as a response about f at scope, sharing its
// sections.
func (a *answer) response(f flow.Five, scope wire.Scope) *wire.Response {
	return &wire.Response{Flow: f, Sections: a.sections, Scope: scope}
}

// flatten reduces sections to their effective facts: for each key, the
// Latest value (§3.3's "the latest value is the most trusted").
func flatten(secs []wire.Section) map[string]string {
	facts := make(map[string]string)
	for _, s := range secs {
		for _, p := range s.Pairs {
			facts[p.Key] = p.Value
		}
	}
	return facts
}

// noUserAnswer is the answer about a flow the host knows nothing about: a
// single section carrying an error pair, like the ident protocol's NO-USER.
func noUserAnswer(h *hostinfo.Host) *answer {
	s := wire.Section{Source: "daemon"}
	s.Add(wire.KeyError, "NO-USER")
	s.Add(wire.KeyHost, h.Name)
	return newAnswer([]wire.Section{s})
}

// derive builds the answer the daemon gives about q's flow now, without
// memoizing it: the answer of the process that owns the flow, behind the
// flow's application pairs when it has any, passed through the forge hook
// when one is installed. scope is the scope it is given at; forged is the
// hook's response, nil without one.
func (d *Daemon) derive(q wire.Query) (a *answer, scope wire.Scope, forged *wire.Response) {
	proc, viaListener, owned := d.host.ResolveOwner(q.Flow)
	var app []wire.KV
	var gen uint64
	built := false
	d.mu.RLock()
	forge := d.forge
	a = d.noUser
	if owned {
		a, gen, built = d.processAnswerLocked(proc)
		if pairs := d.dynamic[q.Flow]; len(pairs) > 0 {
			app = append([]wire.KV(nil), pairs...)
		} else if viaListener {
			scope = d.listenerScopeLocked(q.Flow.Proto, q.Flow.DstPort)
		}
	}
	d.mu.RUnlock()
	if built {
		d.keepProcess(proc, a, gen)
	}
	if app != nil {
		secs := make([]wire.Section, 0, 1+len(a.sections))
		secs = append(secs, wire.Section{Source: "application", Pairs: app})
		a = newAnswer(append(secs, a.sections...))
	}
	if forge != nil {
		// The hook gets a private copy to do with as it likes, and what it
		// returns is copied for the memo: neither the shared answer nor the
		// memo can change through a response after it is handed out.
		forged = forge(q, a.response(q.Flow, scope).Clone())
		a = newAnswer(forged.Clone().Sections)
	}
	return a, scope, forged
}

// deriveScope builds the answer the daemon gives now at listener scope s:
// the answer of the process listening there. It is nil when no process
// listens there or something narrows the scope to flow scope.
func (d *Daemon) deriveScope(s wire.Scope) *answer {
	proc, owned := d.host.ListenerOf(s.Proto, s.Port)
	if !owned || proc == nil {
		return nil
	}
	d.mu.RLock()
	if d.listenerScopeLocked(s.Proto, s.Port) != s {
		d.mu.RUnlock()
		return nil
	}
	a, gen, built := d.processAnswerLocked(proc)
	d.mu.RUnlock()
	if built {
		d.keepProcess(proc, a, gen)
	}
	return a
}

// listenerScopeLocked is the scope of an answer resolved through the
// listener on port: its listener scope, or flow scope while something
// narrows it. d.mu must be held, for reading at least.
func (d *Daemon) listenerScopeLocked(proto netaddr.Proto, port netaddr.Port) wire.Scope {
	s := wire.ListenerScope(proto, port)
	if d.unscoped || d.narrowed[s] > 0 {
		return wire.Scope{}
	}
	return s
}

// processAnswerLocked returns proc's answer from the table, or builds it
// (built) for keepProcess to enter under gen. The generation is read with
// the configuration the answer is built from, and before the host's patches
// are: an invalidation after either read moves it, and keepProcess then
// drops the answer. d.mu must be held, for reading at least.
func (d *Daemon) processAnswerLocked(proc *hostinfo.Process) (a *answer, gen uint64, built bool) {
	gen = d.procGen
	if a = d.procAnswers[proc]; a == nil {
		a, built = d.buildProcessLocked(proc), true
	}
	return a, gen, built
}

// buildProcessLocked builds a process's answer: the user-config,
// system-config and daemon sections of HandleQuery's order, empty ones
// elided. d.mu must be held, for reading at least.
func (d *Daemon) buildProcessLocked(proc *hostinfo.Process) *answer {
	secs := make([]wire.Section, 0, 3)
	if app, ok := d.userApps[proc.Exe.Path]; ok && len(app.Pairs) > 0 {
		secs = append(secs, wire.Section{
			Source: "user-config",
			Pairs:  append([]wire.KV(nil), app.Pairs...),
		})
	}
	sys := wire.Section{Source: "system-config", Pairs: append([]wire.KV(nil), d.hostPairs...)}
	if app, ok := d.sysApps[proc.Exe.Path]; ok {
		sys.Pairs = append(sys.Pairs, app.Pairs...)
	}
	if len(sys.Pairs) > 0 {
		secs = append(secs, sys)
	}

	ground := wire.Section{Source: "daemon"}
	ground.Add(wire.KeyUserID, proc.User.Name)
	if len(proc.User.Groups) > 0 {
		ground.Add(wire.KeyGroupID, strings.Join(proc.User.Groups, " "))
	}
	name := proc.Exe.Name
	if name == "" {
		name = path.Base(proc.Exe.Path)
	}
	ground.Add(wire.KeyName, name)
	ground.Add(wire.KeyAppName, name)
	ground.Add(wire.KeyExeHash, proc.Exe.Hash())
	if proc.Exe.Version != "" {
		ground.Add(wire.KeyVersion, proc.Exe.Version)
	}
	if proc.Exe.Vendor != "" {
		ground.Add(wire.KeyVendor, proc.Exe.Vendor)
	}
	if proc.Exe.Type != "" {
		ground.Add(wire.KeyType, proc.Exe.Type)
	}
	if patches := d.host.Patches(); patches != "" {
		ground.Add(wire.KeyOSPatch, patches)
	}
	ground.Add(wire.KeyHost, d.host.Name)
	return newAnswer(append(secs, ground))
}

// keepProcess enters a process's answer in the table unless an invalidation
// has moved the generation since the answer's inputs were read, evicting an
// arbitrary other process's answer past procAnswersCap.
func (d *Daemon) keepProcess(proc *hostinfo.Process, a *answer, gen uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gen != d.procGen {
		return
	}
	if d.procAnswers == nil {
		d.procAnswers = make(map[*hostinfo.Process]*answer)
	}
	if len(d.procAnswers) >= procAnswersCap {
		for victim := range d.procAnswers {
			delete(d.procAnswers, victim)
			break
		}
	}
	d.procAnswers[proc] = a
}

// dropProcessAnswersLocked empties the per-process table after a change that
// can alter what a process's answer says. d.mu must be held for writing.
func (d *Daemon) dropProcessAnswersLocked() {
	clear(d.procAnswers)
	d.procGen++
}
