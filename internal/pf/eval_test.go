package pf

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/sig"
	"identxx/internal/wire"
)

// resp builds a single-section response from alternating key, value pairs.
func resp(f flow.Five, kv ...string) *wire.Response {
	r := wire.NewResponse(f)
	for i := 0; i+1 < len(kv); i += 2 {
		r.Add(kv[i], kv[i+1])
	}
	return r
}

func tcp(src string, sp netaddr.Port, dst string, dp netaddr.Port) flow.Five {
	return flow.Five{
		SrcIP:   netaddr.MustParseIP(src),
		DstIP:   netaddr.MustParseIP(dst),
		Proto:   netaddr.ProtoTCP,
		SrcPort: sp,
		DstPort: dp,
	}
}

func TestLastMatchWins(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any
`)
	d := p.Evaluate(Input{Flow: tcp("10.0.0.1", 1, "10.0.0.2", 2)})
	if d.Action != Pass || !d.Matched {
		t.Errorf("decision = %+v, want pass (last match wins)", d)
	}
}

func TestQuickShortCircuits(t *testing.T) {
	p := MustCompile("t", `
block quick from any to any
pass from any to any
`)
	d := p.Evaluate(Input{Flow: tcp("10.0.0.1", 1, "10.0.0.2", 2)})
	if d.Action != Block {
		t.Errorf("quick block overridden: %+v", d)
	}
	if d.Rule == nil || !d.Rule.Quick {
		t.Error("deciding rule should be the quick rule")
	}
}

func TestDefaultWhenNoMatch(t *testing.T) {
	p := MustCompile("t", `block from 192.168.0.0/16 to any`)
	d := p.Evaluate(Input{Flow: tcp("10.0.0.1", 1, "10.0.0.2", 2)})
	if d.Matched {
		t.Error("no rule should match")
	}
	if d.Action != Pass {
		t.Error("PF default is pass")
	}
	p.Default = Block
	if got := p.Evaluate(Input{Flow: tcp("10.0.0.1", 1, "10.0.0.2", 2)}); got.Action != Block {
		t.Error("configured default not honored")
	}
}

func TestAddressAndPortMatching(t *testing.T) {
	p := MustCompile("t", `
table <lan> { 192.168.0.0/24 }
block all
pass from <lan> to !<lan> port 443
`)
	in := func(src, dst string, dp netaddr.Port) Decision {
		return p.Evaluate(Input{Flow: tcp(src, 999, dst, dp)})
	}
	if d := in("192.168.0.5", "8.8.8.8", 443); d.Action != Pass {
		t.Errorf("lan->wan:443 = %v, want pass", d.Action)
	}
	if d := in("192.168.0.5", "8.8.8.8", 80); d.Action != Block {
		t.Errorf("lan->wan:80 = %v, want block (port mismatch)", d.Action)
	}
	if d := in("192.168.0.5", "192.168.0.9", 443); d.Action != Block {
		t.Errorf("lan->lan = %v, want block (to !<lan>)", d.Action)
	}
	if d := in("8.8.4.4", "8.8.8.8", 443); d.Action != Block {
		t.Errorf("wan->wan = %v, want block (from <lan>)", d.Action)
	}
}

func TestNestedTables(t *testing.T) {
	p := MustCompile("t", `
table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
block all
pass from <int_hosts> to <int_hosts>
`)
	if d := p.Evaluate(Input{Flow: tcp("192.168.0.7", 1, "192.168.1.1", 2)}); d.Action != Pass {
		t.Errorf("nested table member not matched: %v", d)
	}
}

func TestTableCycleRejected(t *testing.T) {
	f, err := Parse("t", `
table <a> { <b> }
table <b> { <a> }
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(f); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Errorf("cycle not rejected: %v", err)
	}
}

func TestUndefinedTableRejectedAtCompile(t *testing.T) {
	f, err := Parse("t", `pass from <nope> to any`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(f); err == nil {
		t.Error("undefined table should fail compile")
	}
}

func TestTablesMergeAcrossFiles(t *testing.T) {
	f1, _ := Parse("a", `table <lan> { 10.0.0.0/24 }`)
	f2, _ := Parse("b", `table <lan> { 10.1.0.0/24 }
block all
pass from <lan> to any`)
	p, err := Compile(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"10.0.0.5", "10.1.0.5"} {
		if d := p.Evaluate(Input{Flow: tcp(src, 1, "8.8.8.8", 2)}); d.Action != Pass {
			t.Errorf("merged table missing %s", src)
		}
	}
}

func TestWithEq(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`)
	f := tcp("10.0.0.1", 1, "10.0.0.2", 2)
	both := Input{Flow: f, Src: resp(f, "name", "skype"), Dst: resp(f, "name", "skype")}
	if d := p.Evaluate(both); d.Action != Pass {
		t.Errorf("skype<->skype = %v, want pass", d.Action)
	}
	oneSided := Input{Flow: f, Src: resp(f, "name", "skype"), Dst: resp(f, "name", "firefox")}
	if d := p.Evaluate(oneSided); d.Action != Block {
		t.Errorf("skype->firefox = %v, want block", d.Action)
	}
	missing := Input{Flow: f, Src: resp(f, "name", "skype")} // no dst response
	if d := p.Evaluate(missing); d.Action != Block {
		t.Errorf("missing dst response = %v, want block (fail closed)", d.Action)
	}
}

func TestNumericComparison(t *testing.T) {
	p := MustCompile("t", `
pass all
block all with lt(@src[version], 200)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "version", "199")}); d.Action != Block {
		t.Error("version 199 should be blocked")
	}
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "version", "210")}); d.Action != Pass {
		t.Error("version 210 should pass")
	}
	// Numeric, not lexicographic: "1000" > "200".
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "version", "1000")}); d.Action != Pass {
		t.Error("version 1000 should pass (numeric comparison)")
	}
	// Missing version: lt() is false, so the block rule does not match.
	if d := p.Evaluate(Input{Flow: f, Src: resp(f)}); d.Action != Pass {
		t.Error("missing version should not match lt()")
	}
}

func TestGteLteGt(t *testing.T) {
	p := MustCompile("t", `
block all
pass all with gte(@src[v], 10) with lte(@src[v], 20)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	for _, c := range []struct {
		v    string
		want Action
	}{{"10", Pass}, {"20", Pass}, {"15", Pass}, {"9", Block}, {"21", Block}} {
		if d := p.Evaluate(Input{Flow: f, Src: resp(f, "v", c.v)}); d.Action != c.want {
			t.Errorf("v=%s: %v, want %v", c.v, d.Action, c.want)
		}
	}
	p2 := MustCompile("t", `block all
pass all with gt(@src[v], 5)`)
	if d := p2.Evaluate(Input{Flow: f, Src: resp(f, "v", "5")}); d.Action != Block {
		t.Error("gt(5,5) should be false")
	}
}

func TestMemberWithMacro(t *testing.T) {
	p := MustCompile("t", `
allowed = "{ http ssh }"
block all
pass from any to any with member(@src[name], $allowed)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "name", "ssh")}); d.Action != Pass {
		t.Error("ssh should be a member of $allowed")
	}
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "name", "skype")}); d.Action != Block {
		t.Error("skype should not be a member of $allowed")
	}
}

func TestMemberBareNameResolvesMacro(t *testing.T) {
	// member(@src[groupID], users): a bare name that resolves to a macro.
	p := MustCompile("t", `
users = "{ alice bob }"
block all
pass from any to any with member(@src[userID], users)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "userID", "alice")}); d.Action != Pass {
		t.Error("alice should match macro-resolved set")
	}
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "userID", "mallory")}); d.Action != Block {
		t.Error("mallory should not match")
	}
}

func TestMemberLiteralGroupAndMultiValue(t *testing.T) {
	// Without a macro, the bare name is a singleton set; the first argument
	// may be multi-valued (user in several groups).
	p := MustCompile("t", `
block all
pass from any to any with member(@src[groupID], research)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "groupID", "staff research admins")}); d.Action != Pass {
		t.Error("multi-valued groupID should intersect {research}")
	}
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "groupID", "staff")}); d.Action != Block {
		t.Error("staff-only should not match research")
	}
}

func TestIncludes(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with includes(@dst[os-patch], MS08-067)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	if d := p.Evaluate(Input{Flow: f, Dst: resp(f, "os-patch", "MS08-001 MS08-067 MS09-001")}); d.Action != Pass {
		t.Error("patched host should pass")
	}
	if d := p.Evaluate(Input{Flow: f, Dst: resp(f, "os-patch", "MS08-001")}); d.Action != Block {
		t.Error("unpatched host should be blocked")
	}
	// Substring is not membership: MS08-0671 does not include MS08-067.
	if d := p.Evaluate(Input{Flow: f, Dst: resp(f, "os-patch", "MS08-0671")}); d.Action != Block {
		t.Error("token membership must be exact")
	}
}

// Walking a set in place yields what splitting with strings.FieldsFunc did,
// on the shapes policies use and on seeded strings over an alphabet of
// separators, braces, other whitespace and multi-byte runes.
func TestSetElementsMatchFieldsFunc(t *testing.T) {
	fields := func(s string) []string {
		s = strings.TrimSpace(s)
		s = strings.TrimPrefix(s, "{")
		s = strings.TrimSuffix(s, "}")
		return strings.FieldsFunc(s, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ',' || r == '\n'
		})
	}
	cases := []string{"", " ", "{}", "{ }", "research", "users,staff", "{ http ssh }", " {a,b\tc\nd} ",
		"{{a}}", "a}", "{a", ",,a,,", "a\rb", "{ a }\r\n", "\u00a0x y\u00a0", "é,ü z", "\xff a"}
	rng := rand.New(rand.NewSource(20))
	alphabet := []string{" ", "\t", ",", "\n", "\r", "{", "}", "a", "bc", "é", "\u00a0", "\xff"}
	for range 2000 {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		var got []string
		for tok, rest := nextElem(setBody(s)); tok != ""; tok, rest = nextElem(rest) {
			got = append(got, tok)
		}
		if want := fields(s); !slices.Equal(got, want) {
			t.Errorf("elements of %q = %q, want %q", s, got, want)
		}
	}
}

// member and includes run per decision on key-dependent policies: walking
// their set arguments must not allocate.
func TestSetFunctionsAllocateNothing(t *testing.T) {
	p := MustCompile("t", "services = \"{ svc0 svc1 svc2 svc3 httpd }\"\nblock all\n")
	ctx := &Ctx{c: &evalCtx{p: p}}
	member := []Value{{S: "users httpd", Present: true}, {S: "services", Present: true, Arg: Arg{Kind: ArgLiteral}}}
	includes := []Value{{S: "MS08-001 MS08-067 MS09-001", Present: true}, {S: " MS08-067 ", Present: true}}
	for name, call := range map[string]func() (bool, error){
		"member":   func() (bool, error) { return fnMember(ctx, member) },
		"includes": func() (bool, error) { return fnIncludes(ctx, includes) },
	} {
		if ok, err := call(); !ok || err != nil {
			t.Fatalf("%s = %v, %v; want a match", name, ok, err)
		}
		if n := testing.AllocsPerRun(1000, func() { call() }); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

func TestAllowedEvaluatesEmbeddedRules(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with allowed(@dst[requirements])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 80)
	req := "block all pass from any to any port 80"
	if d := p.Evaluate(Input{Flow: f, Dst: resp(f, "requirements", req)}); d.Action != Pass {
		t.Errorf("requirements admitting :80 should pass: %+v", d)
	}
	f2 := tcp("1.1.1.1", 1, "2.2.2.2", 22)
	if d := p.Evaluate(Input{Flow: f2, Dst: resp(f2, "requirements", req)}); d.Action != Block {
		t.Error("requirements not admitting :22 should block")
	}
	// Embedded rules are default-deny: empty/no-match requirements fail.
	if d := p.Evaluate(Input{Flow: f, Dst: resp(f, "requirements", "pass from 9.9.9.9 to any")}); d.Action != Block {
		t.Error("non-matching requirements should fail closed")
	}
	// Missing requirements key fails closed.
	if d := p.Evaluate(Input{Flow: f, Dst: resp(f)}); d.Action != Block {
		t.Error("missing requirements should fail closed")
	}
}

func TestAllowedEmbeddedWithClauses(t *testing.T) {
	// Figure 4: research apps may only talk to research apps.
	p := MustCompile("t", `
block all
pass from any to any with allowed(@src[requirements])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	req := "block all pass all with eq(@src[name], research-app) with eq(@dst[name], research-app)"
	in := Input{
		Flow: f,
		Src:  resp(f, "name", "research-app", "requirements", req),
		Dst:  resp(f, "name", "research-app"),
	}
	if d := p.Evaluate(in); d.Action != Pass {
		t.Errorf("research-app<->research-app should pass: %+v", d)
	}
	in.Dst = resp(f, "name", "database")
	if d := p.Evaluate(in); d.Action != Block {
		t.Error("research-app->database should block")
	}
}

func TestAllowedRejectsDefinitionsAndRecursion(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with allowed(@src[requirements])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	// Definition smuggling is rejected (diagnostic, rule fails).
	d := p.Evaluate(Input{Flow: f, Src: resp(f, "requirements", "table <x> { 1.2.3.4 } pass all")})
	if d.Action != Block {
		t.Error("definition smuggling should fail closed")
	}
	if len(d.Diags) == 0 {
		t.Error("expected a diagnostic for rejected requirements")
	}
	// Self-referential allowed() bottoms out at the depth limit.
	d2 := p.Evaluate(Input{Flow: f, Src: resp(f, "requirements", "pass all with allowed(@src[requirements])")})
	if d2.Action != Block {
		t.Error("recursive requirements should fail closed")
	}
	if len(d2.Diags) == 0 {
		t.Error("expected a recursion diagnostic")
	}
}

func TestVerify(t *testing.T) {
	pub, priv := sig.MustGenerateKey()
	reqs := "block all pass all with eq(@src[name], research-app)"
	hash := "abc123"
	good := sig.Sign(priv, hash, "research-app", reqs)

	f1, _ := Parse("defs", `dict <pubkeys> { research : `+pub.String()+` }`)
	f2, _ := Parse("rules", `
block all
pass from any to any \
    with verify(@src[req-sig], @pubkeys[research], @src[exe-hash], @src[app-name], @src[requirements])
`)
	p, err := Compile(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	in := Input{Flow: f, Src: resp(f,
		"req-sig", good, "exe-hash", hash, "app-name", "research-app", "requirements", reqs)}
	if d := p.Evaluate(in); d.Action != Pass {
		t.Errorf("valid signature should pass: %+v", d)
	}
	// Tampered requirements: signature no longer covers the value.
	in.Src = resp(f, "req-sig", good, "exe-hash", hash, "app-name", "research-app",
		"requirements", "pass all")
	if d := p.Evaluate(in); d.Action != Block {
		t.Error("tampered requirements must fail verify")
	}
	// Wrong signer key in dict.
	otherPub, _ := sig.MustGenerateKey()
	f1b, _ := Parse("defs", `dict <pubkeys> { research : `+otherPub.String()+` }`)
	p2, _ := Compile(f1b, f2)
	in.Src = resp(f, "req-sig", good, "exe-hash", hash, "app-name", "research-app", "requirements", reqs)
	if d := p2.Evaluate(in); d.Action != Block {
		t.Error("signature under wrong key must fail")
	}
	// Missing req-sig fails closed without diagnostics noise.
	in.Src = resp(f, "exe-hash", hash, "app-name", "research-app", "requirements", reqs)
	if d := p.Evaluate(in); d.Action != Block {
		t.Error("missing signature must fail closed")
	}
}

func TestStarConcatAccessor(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with eq(*@src[netpath], "branchA,branchB")
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	r := wire.NewResponse(f)
	r.Add("netpath", "branchA")
	r.Augment("controllerB").Add("netpath", "branchB")
	if d := p.Evaluate(Input{Flow: f, Src: r}); d.Action != Pass {
		t.Errorf("endorsement chain should match: %+v", d)
	}
	// A single-section response does not present the full chain.
	r2 := wire.NewResponse(f)
	r2.Add("netpath", "branchA")
	if d := p.Evaluate(Input{Flow: f, Src: r2}); d.Action != Block {
		t.Error("incomplete chain should not match")
	}
}

func TestLatestSectionWinsInEval(t *testing.T) {
	// A downstream controller overrides a host-supplied value; plain
	// indexing must see the override (§3.3 "latest value is the most
	// trusted").
	p := MustCompile("t", `
block all
pass from any to any with eq(@src[userID], verified-alice)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	r := wire.NewResponse(f)
	r.Add("userID", "alice")
	r.Augment("edge-controller").Add("userID", "verified-alice")
	if d := p.Evaluate(Input{Flow: f, Src: r}); d.Action != Pass {
		t.Error("latest section value should win")
	}
}

func TestUnknownFunctionDiagnostic(t *testing.T) {
	p := MustCompile("t", `
pass all
block all with frob(@src[x])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	d := p.Evaluate(Input{Flow: f, Src: resp(f, "x", "1")})
	if d.Action != Pass {
		t.Error("rule with unknown function must not match")
	}
	if len(d.Diags) == 0 || !strings.Contains(d.Diags[0], "frob") {
		t.Errorf("diags = %v", d.Diags)
	}
}

func TestRegisterCustomFunction(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with even(@src[pid])
`)
	p.Register("even", func(_ *Ctx, args []Value) (bool, error) {
		if len(args) != 1 || !args[0].Present {
			return false, nil
		}
		return len(args[0].S) > 0 && (args[0].S[len(args[0].S)-1]-'0')%2 == 0, nil
	})
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "pid", "42")}); d.Action != Pass {
		t.Error("custom function should pass pid 42")
	}
	if d := p.Evaluate(Input{Flow: f, Src: resp(f, "pid", "43")}); d.Action != Block {
		t.Error("custom function should fail pid 43")
	}
}

func TestArityErrorsAreDiagnostics(t *testing.T) {
	p := MustCompile("t", `
pass all
block all with eq(@src[x])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	d := p.Evaluate(Input{Flow: f, Src: resp(f, "x", "1")})
	if d.Action != Pass || len(d.Diags) == 0 {
		t.Errorf("arity error should be a diagnostic: %+v", d)
	}
}

func TestUndefinedDictAndMacroDiagnostics(t *testing.T) {
	p := MustCompile("t", `
pass all
block all with eq(@nosuch[k], x)
block all with member(@src[g], $nosuch)
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 2)
	d := p.Evaluate(Input{Flow: f, Src: resp(f, "g", "x")})
	if d.Action != Pass {
		t.Error("rules with undefined references must not match")
	}
	joined := strings.Join(d.Diags, "\n")
	if !strings.Contains(joined, "nosuch") {
		t.Errorf("diags = %v", d.Diags)
	}
}

func TestKeepStatePropagates(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any keep state
`)
	d := p.Evaluate(Input{Flow: tcp("1.1.1.1", 1, "2.2.2.2", 2)})
	if !d.KeepState {
		t.Error("KeepState not propagated to decision")
	}
}

func TestFigure2FullMatrix(t *testing.T) {
	// The complete Figure 2 configuration evaluated over the scenarios the
	// paper's prose describes.
	files := map[string]string{
		"00-local-header.control": `
table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
allowed = "{ http ssh }"
block all
pass from <int_hosts> to !<int_hosts> keep state
pass from <int_hosts> to <int_hosts> with member(@src[name], $allowed) keep state
`,
		"50-skype.control": `
table <skype_update> { 123.123.123.0/24 }
pass all with eq(@src[name], skype) with eq(@dst[name], skype)
pass from any to <skype_update> port 80 with eq(@src[name], skype) keep state
`,
		"99-local-footer.control": `
block all with eq(@src[name], skype) with lt(@src[version], 200)
block from any to <server> with eq(@src[name], skype)
`,
	}
	p, err := LoadSources(files)
	if err != nil {
		t.Fatal(err)
	}
	p.Default = Block

	type scenario struct {
		desc  string
		flow  flow.Five
		srcKV []string
		dstKV []string
		want  Action
	}
	lanA, lanB, server := "192.168.0.10", "192.168.0.20", "192.168.1.1"
	scenarios := []scenario{
		{"skype to skype inside", tcp(lanA, 5060, lanB, 5060),
			[]string{"name", "skype", "version", "210"}, []string{"name", "skype"}, Pass},
		{"old skype blocked by footer", tcp(lanA, 5060, lanB, 5060),
			[]string{"name", "skype", "version", "150"}, []string{"name", "skype"}, Block},
		{"skype to server blocked by footer", tcp(lanA, 5060, server, 80),
			[]string{"name", "skype", "version", "210"}, []string{"name", "skype"}, Block},
		{"skype update over port 80", tcp(lanA, 40000, "123.123.123.7", 80),
			[]string{"name", "skype", "version", "210"}, nil, Pass},
		{"approved app http inside", tcp(lanA, 40000, server, 80),
			[]string{"name", "http"}, nil, Pass},
		{"unapproved app inside", tcp(lanA, 40000, server, 80),
			[]string{"name", "dropbox"}, nil, Block},
		{"outbound to internet", tcp(lanA, 40000, "8.8.8.8", 443),
			[]string{"name", "firefox"}, nil, Pass},
		{"inbound from internet", tcp("8.8.8.8", 40000, lanA, 22),
			nil, []string{"name", "sshd"}, Block},
	}
	for _, s := range scenarios {
		in := Input{Flow: s.flow}
		if s.srcKV != nil {
			in.Src = resp(s.flow, s.srcKV...)
		}
		if s.dstKV != nil {
			in.Dst = resp(s.flow, s.dstKV...)
		}
		d := p.Evaluate(in)
		if d.Action != s.want {
			t.Errorf("%s: got %v, want %v (rule=%v diags=%v)", s.desc, d.Action, s.want, d.Rule, d.Diags)
		}
	}
}

func TestEvaluateConcurrent(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with allowed(@src[requirements])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 80)
	in := Input{Flow: f, Src: resp(f, "requirements", "block all pass from any to any port 80")}
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < 200; i++ {
				if d := p.Evaluate(in); d.Action != Pass {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent evaluation returned wrong decision")
		}
	}
}

func BenchmarkEvaluateSimple(b *testing.B) {
	p := MustCompile("t", `
table <lan> { 192.168.0.0/24 }
block all
pass from <lan> to !<lan> keep state
`)
	in := Input{Flow: tcp("192.168.0.5", 999, "8.8.8.8", 443)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := p.Evaluate(in); d.Action != Pass {
			b.Fatal("wrong decision")
		}
	}
}

func BenchmarkEvaluateWithPredicates(b *testing.B) {
	p := MustCompile("t", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`)
	f := tcp("10.0.0.1", 1, "10.0.0.2", 2)
	in := Input{Flow: f, Src: resp(f, "name", "skype"), Dst: resp(f, "name", "skype")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := p.Evaluate(in); d.Action != Pass {
			b.Fatal("wrong decision")
		}
	}
}

func BenchmarkEvaluateAllowedCached(b *testing.B) {
	p := MustCompile("t", `
block all
pass from any to any with allowed(@src[requirements])
`)
	f := tcp("10.0.0.1", 1, "10.0.0.2", 80)
	in := Input{Flow: f, Src: resp(f, "requirements", "block all pass from any to any port 80")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := p.Evaluate(in); d.Action != Pass {
			b.Fatal("wrong decision")
		}
	}
}
