package pf

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"identxx/internal/flow"
)

// TestMain turns on differential mode for the whole package: every
// Evaluate in the suite (the full eval_test.go corpus included) runs both
// the compiled program and the tree-walking interpreter and panics on any
// verdict disagreement. The acceptance contract of the policy compiler.
func TestMain(m *testing.M) {
	prev := SetDifferential(true)
	code := m.Run()
	SetDifferential(prev)
	os.Exit(code)
}

func TestDifferentialModeEnabled(t *testing.T) {
	if !differential.Load() {
		t.Fatal("differential mode should be on for the pf test suite")
	}
}

// TestCompiledMatchesInterpreterOnCorpus spot-checks the two engines
// explicitly (beyond the implicit check every Evaluate performs under
// differential mode) across policies that exercise each compiled
// construct: tables, lists, negation, ports, quick, macros, dicts,
// concat accessors, embedded rules, and broken references.
func TestCompiledMatchesInterpreterOnCorpus(t *testing.T) {
	policies := []string{
		`block all`,
		`pass all`,
		`block all
pass from any to any`,
		`block quick from any to any
pass from any to any`,
		`table <lan> { 192.168.0.0/24 }
block all
pass from <lan> to !<lan> port 443 keep state`,
		`table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
block all
pass from { <int_hosts> 10.9.9.9 } to { !<lan> 8.8.8.8 } port { 80, 443 }`,
		`allowed = "{ http ssh }"
block all
pass from any to any with member(@src[name], $allowed)`,
		`dict <pubkeys> { research : not-a-key }
pass all
block all with eq(@pubkeys[research], not-a-key)`,
		`block all
pass from any to any with eq(*@src[netpath], "a,b")`,
		`block all
pass from any to any with allowed(@dst[requirements])`,
		`block all
pass from any to any with allowed("block all pass from any to any port 80")`,
		`pass all
block all with frob(@src[x])
block all with eq($missing, 1)
block all with eq(@nodict[k], 1)`,
		`block all
pass from 10.0.0.0/8 to any port 80
pass from any to any port 443 with eq(@src[name], web)`,
	}
	flows := []flow.Five{
		tcp("192.168.0.5", 999, "8.8.8.8", 443),
		tcp("192.168.0.5", 999, "192.168.1.1", 80),
		tcp("10.0.0.1", 40000, "10.0.0.2", 80),
		tcp("10.9.9.9", 1, "1.2.3.4", 22),
	}
	responses := [][]string{
		nil,
		{"name", "http"},
		{"name", "web", "netpath", "a", "requirements", "block all pass from any to any port 80"},
		{"x", "1", "requirements", "pass all"},
	}
	for pi, src := range policies {
		p, err := Compile(mustParse(t, src))
		if err != nil {
			t.Fatalf("policy %d: %v", pi, err)
		}
		for _, f := range flows {
			for _, kv := range responses {
				in := Input{Flow: f}
				if kv != nil {
					in.Src = resp(f, kv...)
					in.Dst = resp(f, kv...)
				}
				dc := p.EvaluateCompiled(in)
				di := p.EvaluateInterpreted(in)
				if dc.Action != di.Action || dc.Rule != di.Rule || dc.Matched != di.Matched || dc.KeepState != di.KeepState {
					t.Errorf("policy %d flow %s resp %v:\n  compiled    %+v\n  interpreted %+v",
						pi, f, kv, dc, di)
				}
			}
		}
	}
}

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStaticKeyAnalysisPerRule(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any port 80 with eq(@src[name], web) keep state
pass from any to any port 22 with eq(@src[userID], root) with includes(@dst[os-patch], MS08-067)
pass from any to any port 25 with allowed(@dst[requirements])
pass from any to any port 443 with custom(@src[pid])
pass from 10.0.0.0/8 to any port 7777
`)
	prog := p.Program()
	type want struct {
		src, dst       []string
		srcAll, dstAll bool
	}
	wants := []want{
		{},
		{src: []string{"name"}},
		{src: []string{"userID"}, dst: []string{"os-patch"}},
		{dst: []string{"requirements"}, srcAll: true, dstAll: true},
		{src: []string{"pid"}, srcAll: true, dstAll: true},
		{},
	}
	if len(prog.rules) != len(wants) {
		t.Fatalf("rules = %d, want %d", len(prog.rules), len(wants))
	}
	for i, w := range wants {
		r := &prog.rules[i]
		if !reflect.DeepEqual(r.srcKeys, w.src) && !(len(r.srcKeys) == 0 && len(w.src) == 0) {
			t.Errorf("rule %d srcKeys = %v, want %v", i, r.srcKeys, w.src)
		}
		if !reflect.DeepEqual(r.dstKeys, w.dst) && !(len(r.dstKeys) == 0 && len(w.dst) == 0) {
			t.Errorf("rule %d dstKeys = %v, want %v", i, r.dstKeys, w.dst)
		}
		if r.srcAll != w.srcAll || r.dstAll != w.dstAll {
			t.Errorf("rule %d all flags = (%v,%v), want (%v,%v)", i, r.srcAll, r.dstAll, w.srcAll, w.dstAll)
		}
	}
}

func TestStaticKeyAnalysisSeesThroughLiteralAllowed(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with allowed("block all pass all with eq(@src[name], research-app) with eq(@dst[name], research-app)")
`)
	prog := p.Program()
	r := &prog.rules[1]
	if r.srcAll || r.dstAll {
		t.Errorf("literal allowed() should stay statically bounded; got all=(%v,%v)", r.srcAll, r.dstAll)
	}
	if !reflect.DeepEqual(r.srcKeys, []string{"name"}) || !reflect.DeepEqual(r.dstKeys, []string{"name"}) {
		t.Errorf("keys = src%v dst%v, want src[name] dst[name]", r.srcKeys, r.dstKeys)
	}
	// One source of truth: ReferencedKeys now sees the embedded keys too.
	if got := p.ReferencedKeys(); !reflect.DeepEqual(got, []string{"name"}) {
		t.Errorf("ReferencedKeys = %v, want [name]", got)
	}
}

func TestStaticKeyAnalysisThroughMacroAndDictAllowed(t *testing.T) {
	p := MustCompile("t", `
reqs = "block all pass all with eq(@src[exe-hash], abc)"
dict <vendor> { skype : "block all pass all with member(@dst[groupID], ops)" }
block all
pass from any to any port 1 with allowed($reqs)
pass from any to any port 2 with allowed(@vendor[skype])
`)
	prog := p.Program()
	if got := prog.rules[1].srcKeys; !reflect.DeepEqual(got, []string{"exe-hash"}) {
		t.Errorf("macro allowed srcKeys = %v", got)
	}
	if prog.rules[1].srcAll || prog.rules[1].dstAll {
		t.Error("macro allowed should be statically bounded")
	}
	if got := prog.rules[2].dstKeys; !reflect.DeepEqual(got, []string{"groupID"}) {
		t.Errorf("dict allowed dstKeys = %v", got)
	}
	if got := p.ReferencedKeys(); !reflect.DeepEqual(got, []string{"exe-hash", "groupID"}) {
		t.Errorf("ReferencedKeys = %v", got)
	}
}

func TestPrepassHeaderOnlyDecision(t *testing.T) {
	p := MustCompile("t", `
block all
pass from 10.0.0.0/8 to any port 80 keep state
pass from any to any port 443 with eq(@src[name], web)
`)
	prog := p.Program()
	if !prog.MaybeHeaderOnly() {
		t.Fatal("program should admit header-only decisions")
	}

	// Port-80 flow from 10/8: the 443 rule cannot header-match, so the
	// verdict is decidable without any endpoint information.
	d, ok, src, dst := prog.Prepass(tcp("10.1.2.3", 999, "8.8.8.8", 80), nil, nil)
	if !ok {
		t.Fatal("port-80 flow should be header-only decidable")
	}
	if d.Action != Pass || !d.KeepState || d.Rule == nil {
		t.Errorf("header-only decision = %+v", d)
	}
	if len(src) != 0 || len(dst) != 0 {
		t.Errorf("decidable flow should need no hints, got %v / %v", src, dst)
	}
	// And the decision must agree with full evaluation.
	if full := p.Evaluate(Input{Flow: tcp("10.1.2.3", 999, "8.8.8.8", 80)}); full.Action != d.Action || full.Rule != d.Rule {
		t.Errorf("prepass %+v != evaluate %+v", d, full)
	}

	// Port-443 flow: the key-requiring rule header-matches, so the flow
	// is not decidable and the hints name exactly its keys.
	_, ok, src, dst = prog.Prepass(tcp("10.1.2.3", 999, "8.8.8.8", 443), nil, nil)
	if ok {
		t.Fatal("port-443 flow must not be header-only decidable")
	}
	if !reflect.DeepEqual(src, []string{"name"}) || len(dst) != 0 {
		t.Errorf("hints = %v / %v, want [name] / []", src, dst)
	}
}

func TestPrepassQuickStopsScan(t *testing.T) {
	p := MustCompile("t", `
block quick from 192.168.0.0/16 to any
pass from any to any with eq(@src[name], web)
`)
	p.Default = Block
	prog := p.Program()
	// A 192.168/16 source hits the quick block before any key-requiring
	// rule can be consulted: decidable, no hints.
	d, ok, _, _ := prog.Prepass(tcp("192.168.0.9", 1, "8.8.8.8", 80), nil, nil)
	if !ok || d.Action != Block || !d.Matched {
		t.Errorf("quick header rule should decide: ok=%v d=%+v", ok, d)
	}
	// Any other source still needs the eq rule's key.
	_, ok, src, _ := prog.Prepass(tcp("10.0.0.1", 1, "8.8.8.8", 80), nil, nil)
	if ok || !reflect.DeepEqual(src, []string{"name"}) {
		t.Errorf("non-quick path: ok=%v src=%v", ok, src)
	}
}

func TestPrepassUnboundedRuleFallsBackToAllKeys(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any port 80 with eq(@src[name], web) with eq(@dst[vendor], x)
pass from any to any port 25 with allowed(@dst[requirements])
`)
	prog := p.Program()
	_, ok, src, dst := prog.Prepass(tcp("1.1.1.1", 1, "2.2.2.2", 25), nil, nil)
	if ok {
		t.Fatal("allowed() flow must not be header-only")
	}
	// The unbounded rule falls back to every statically-known key for
	// each end.
	if !reflect.DeepEqual(src, []string{"name"}) {
		t.Errorf("src hints = %v, want the program-wide src union [name]", src)
	}
	if !reflect.DeepEqual(dst, []string{"requirements", "vendor"}) {
		t.Errorf("dst hints = %v, want [requirements vendor]", dst)
	}
}

func TestMaybeHeaderOnlyGate(t *testing.T) {
	never := MustCompile("t", `
block all
pass from any to any with eq(@src[name], skype)
`)
	if never.Program().MaybeHeaderOnly() {
		t.Error("universal key-requiring rule should disable the pre-pass")
	}
	maybe := MustCompile("t", `
block all
pass from any to any port 443 with eq(@src[name], web)
`)
	if !maybe.Program().MaybeHeaderOnly() {
		t.Error("port-guarded key rule should keep the pre-pass possible")
	}
	quickShield := MustCompile("t", `
pass quick from any to any
pass from any to any with eq(@src[name], skype)
`)
	if !quickShield.Program().MaybeHeaderOnly() {
		t.Error("unconditional quick rule before the key rule keeps every flow decidable")
	}
}

func TestHintsMatchPrepassHints(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any port 80 with eq(@src[name], web)
pass from any to any port 22 with eq(@dst[userID], root)
`)
	prog := p.Program()
	if prog.index.field != TraceDstPort {
		t.Fatalf("dispatch on %q, want the destination port", fieldNames[prog.index.field])
	}
	lin := withoutIndex(prog)
	for _, f := range []flow.Five{
		tcp("1.1.1.1", 1, "2.2.2.2", 80),
		tcp("1.1.1.1", 1, "2.2.2.2", 22),
		tcp("1.1.1.1", 1, "2.2.2.2", 9999),
	} {
		_, _, psrc, pdst := prog.Prepass(f, nil, nil)
		hsrc, hdst := prog.Hints(f, nil, nil)
		if !reflect.DeepEqual(psrc, hsrc) || !reflect.DeepEqual(pdst, hdst) {
			t.Errorf("flow %s: Prepass hints (%v,%v) != Hints (%v,%v)", f, psrc, pdst, hsrc, hdst)
		}
		lsrc, ldst := lin.Hints(f, nil, nil)
		if !reflect.DeepEqual(hsrc, lsrc) || !reflect.DeepEqual(hdst, ldst) {
			t.Errorf("flow %s: Hints (%v,%v) != linear scan's (%v,%v)", f, hsrc, hdst, lsrc, ldst)
		}
	}

	// On a generated ruleset the two walks may part ways — Prepass stops at
	// a quick rule whose constant predicates hold, Hints does not evaluate
	// predicates and walks on — but only that way round: what Prepass
	// collected, Hints collected first.
	pick := seeded(11)
	p = MustCompile("gen", genRuleset(pick, 300, genProfile{[4]int{10, 5, 10, 90}, 60}))
	prog = p.Program()
	if prog.index.field == 0 {
		t.Fatal("generated ruleset built no index")
	}
	isPrefix := func(pre, all []string) bool {
		return len(pre) <= len(all) && slices.Equal(pre, all[:len(pre)])
	}
	for _, f := range genFlows(pick, 2000) {
		_, _, psrc, pdst := prog.Prepass(f, nil, nil)
		hsrc, hdst := prog.Hints(f, nil, nil)
		if !isPrefix(psrc, hsrc) || !isPrefix(pdst, hdst) {
			t.Fatalf("flow %s: Prepass hints (%v,%v) are not a prefix of Hints (%v,%v)", f, psrc, pdst, hsrc, hdst)
		}
	}
	checkDispatch(t, p, genFlows(pick, 500))
}

func TestRuleCacheBounded(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with allowed(@src[requirements])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 80)
	// A churning requirements value: every flow presents a distinct rule
	// text, the way a hostile (or just buggy) endpoint fleet would.
	for i := 0; i < maxRuleCacheEntries+200; i++ {
		req := fmt.Sprintf("block all pass from any to any port %d", 1+i%60000)
		d := p.Evaluate(Input{Flow: f, Src: resp(f, "requirements", req)})
		_ = d
	}
	entries, evictions := p.RuleCacheStats()
	if entries > maxRuleCacheEntries {
		t.Errorf("rule cache holds %d entries, cap is %d", entries, maxRuleCacheEntries)
	}
	if evictions == 0 {
		t.Error("expected evictions after overflowing the cache")
	}
	// The cache must still serve correct results after eviction churn.
	d := p.Evaluate(Input{Flow: f, Src: resp(f, "requirements", "block all pass from any to any port 80")})
	if d.Action != Pass {
		t.Errorf("post-eviction evaluation = %+v, want pass", d)
	}
}

func TestProgramExplain(t *testing.T) {
	explain := func(src string) string {
		var b strings.Builder
		MustCompile("t", src).Program().Explain(&b)
		return b.String()
	}
	out := explain(`
block all
pass from 10.0.0.0/8 to any port 80 with eq(@src[name], web)
`)
	for _, want := range []string{"program: 2 rules", "src[name]", "header-only",
		"dispatch: none", "worst case 2 candidates per decision"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	out = explain(`
block all
pass from any to any port { 80, 443 }
pass from any to any port 443 with eq(@src[name], web)
pass from any to any port 22
block from any to any port 1-1023 with eq(@src[name], nc)
`)
	want := "dispatch: on destination port, 3 distinct values, residual 2 rules, worst case 4 candidates per decision"
	if !strings.Contains(out, want) {
		t.Errorf("Explain output missing %q:\n%s", want, out)
	}
}

// TestRegisterOverridingBuiltinDisablesStaticAnalysis: replacing a
// built-in (whose read behavior the key analysis assumed) must re-lower
// the program with that name treated conservatively — otherwise the
// pre-pass could decide flows whose replacement predicate actually reads
// endpoint keys through EvalEmbedded.
func TestRegisterOverridingBuiltinDisablesStaticAnalysis(t *testing.T) {
	p := MustCompile("t", `
m = "x"
block all
pass from any to any port 80 with member($m, x)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 80)
	if _, ok, _, _ := p.Program().Prepass(f, nil, nil); !ok {
		t.Fatal("with the builtin member, the port-80 flow is header-only decidable")
	}
	p.Register("member", func(ctx *Ctx, args []Value) (bool, error) {
		d, err := ctx.EvalEmbedded("override", "block all pass all with eq(@src[name], web)")
		if err != nil {
			return false, err
		}
		return d.Action == Pass, nil
	})
	prog := p.Program()
	if _, ok, _, _ := prog.Prepass(f, nil, nil); ok {
		t.Fatal("after overriding member, the rule may read endpoint keys; Prepass must not decide")
	}
	if r := &prog.rules[1]; !r.srcAll || !r.dstAll {
		t.Errorf("overridden builtin should be unbounded; got all=(%v,%v)", r.srcAll, r.dstAll)
	}
	// And evaluation uses the replacement (differential mode checks both
	// engines agree on it).
	in := Input{Flow: f, Src: resp(f, "name", "web")}
	if d := p.Evaluate(in); d.Action != Pass {
		t.Errorf("replacement member should pass via embedded rules: %+v", d)
	}
}

// TestTruncatedEmbeddedAnalysisNotCached: an allowed() chain analyzed
// near the depth cap gets its deepest level cut off; that truncated
// analysis must not be memoized, or a shallower call site of the same
// source would inherit key sets missing the deepest reads.
func TestTruncatedEmbeddedAnalysisNotCached(t *testing.T) {
	p := MustCompile("t", `
a = "pass all with allowed($b)"
b = "pass all with allowed($c)"
c = "pass all with allowed($d)"
d = "pass all with allowed($e)"
e = "pass all with eq(@src[secret], 1)"
block all
pass from any to any port 1 with allowed($a)
pass from any to any port 2 with allowed($c)
`)
	prog := p.Program()
	// Rule 2 reaches e at runtime depth 3 (< cap), so its static keys
	// must include the deepest read even though rule 1's analysis of the
	// same c/d/e sources was truncated at the cap.
	r2 := &prog.rules[2]
	found := false
	for _, k := range r2.srcKeys {
		if k == "secret" {
			found = true
		}
	}
	if !found && !r2.srcAll {
		t.Errorf("allowed($c) rule must see @src[secret] (keys=%v all=%v): truncated analysis leaked into the cache",
			r2.srcKeys, r2.srcAll)
	}
}

func TestRegisterAfterCompileStillWorksCompiled(t *testing.T) {
	// Register replaces functions after lowering; the VM must observe the
	// live registry, not a compile-time snapshot.
	p := MustCompile("t", `
block all
pass from any to any with always()
`)
	p.Register("always", func(_ *Ctx, _ []Value) (bool, error) { return true, nil })
	if d := p.EvaluateCompiled(Input{Flow: tcp("1.1.1.1", 1, "2.2.2.2", 2)}); d.Action != Pass {
		t.Errorf("late-registered function not visible to VM: %+v", d)
	}
}

func TestCompiledEvaluationAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting")
	}
	prev := SetDifferential(false)
	defer SetDifferential(prev)
	p := MustCompile("t", `
table <lan> { 192.168.0.0/24 }
block all
pass from <lan> to !<lan> port 443 with eq(@src[name], web) keep state
`)
	f := tcp("192.168.0.5", 999, "8.8.8.8", 443)
	in := Input{Flow: f, Src: resp(f, "name", "web")}
	if avg := testing.AllocsPerRun(1000, func() {
		if d := p.Evaluate(in); d.Action != Pass {
			t.Fatal("wrong decision")
		}
	}); avg > 0 {
		t.Errorf("compiled evaluation allocates %.1f objects/op, want 0", avg)
	}
	// The pre-pass must be allocation-free too once hint capacity exists.
	prog := p.Program()
	src := make([]string, 0, 8)
	dst := make([]string, 0, 8)
	if avg := testing.AllocsPerRun(1000, func() {
		_, _, src, dst = prog.Prepass(f, src[:0], dst[:0])
	}); avg > 0 {
		t.Errorf("Prepass allocates %.1f objects/op, want 0", avg)
	}
}
