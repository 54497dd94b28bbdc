package pf

import (
	"strings"
	"testing"

	"identxx/internal/netaddr"
)

// lexAll scans the whole input into a token slice, for the lexer tests.
func lexAll(file, src string) ([]token, error) {
	l := newLexer(file, src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := lexAll("t", `pass from <lan> to !<server> with eq(@src[userID], system) # comment`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.kind
	}
	want := []tokKind{
		tokWord, tokWord, tokTable, tokWord, tokBang, tokTable,
		tokWord, tokWord, tokLParen, tokAt, tokLBracket, tokWord, tokRBracket,
		tokComma, tokWord, tokRParen, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexContinuationAndComments(t *testing.T) {
	src := "pass from any \\\n  to any # trailing\n# full line\nblock all"
	toks, err := lexAll("t", src)
	if err != nil {
		t.Fatal(err)
	}
	var words []string
	for _, tok := range toks {
		if tok.kind == tokWord {
			words = append(words, tok.text)
		}
	}
	if strings.Join(words, " ") != "pass from any to any block all" {
		t.Errorf("words = %v", words)
	}
	// Line numbers advance across continuations.
	last := toks[len(toks)-2]
	if last.line != 4 {
		t.Errorf("last token line = %d, want 4", last.line)
	}
}

func TestLexStarAt(t *testing.T) {
	toks, err := lexAll("t", `eq(*@src[userID], alice)`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.kind == tokStarAt && tok.text == "src" {
			found = true
		}
	}
	if !found {
		t.Error("did not lex *@src")
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{
		`pass from <unterminated`,
		`"unterminated string`,
		"stray \\ backslash",
		"pass * from any",
		"pass ~ all",
	} {
		if _, err := lexAll("t", bad); err == nil {
			t.Errorf("lexAll(%q) should fail", bad)
		}
	}
}

func TestParsePaperFigure2(t *testing.T) {
	// Verbatim (modulo layout) from Figure 2 of the paper.
	src := `
table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
allowed = "{ http ssh }" # a macro of apps

# default deny
block all

# allow connections outbound
pass from <int_hosts> \
     to !<int_hosts> \
     keep state

# allow all traffic from approved apps
pass from <int_hosts> \
     to <int_hosts> \
     with member(@src[name], $allowed) \
     keep state

table <skype_update> { 123.123.123.0/24 }
# skype to skype allowed
pass all \
     with eq(@src[name], skype) \
     with eq(@dst[name], skype)
# skype update feature
pass from any \
     to <skype_update> port 80 \
     with eq(@src[name], skype) \
     keep state

# no really old versions of skype
block all \
     with eq(@src[name], skype) \
     with lt(@src[version], 200)
# no skype to server
block from any \
     to <server> \
     with eq(@src[name], skype)
`
	f, err := Parse("fig2", src)
	if err != nil {
		t.Fatal(err)
	}
	rules := f.Rules()
	if len(rules) != 7 {
		t.Fatalf("rule count = %d, want 7", len(rules))
	}
	// block all
	if rules[0].Action != Block || rules[0].From.Kind != AddrAny || rules[0].To.Kind != AddrAny {
		t.Errorf("rule 0 wrong: %s", rules[0])
	}
	// outbound keep state with negated to.
	if !rules[1].KeepState || !rules[1].To.Neg || rules[1].To.Table != "int_hosts" {
		t.Errorf("rule 1 wrong: %s", rules[1])
	}
	// member with macro arg.
	if len(rules[2].Withs) != 1 || rules[2].Withs[0].Name != "member" ||
		rules[2].Withs[0].Args[1].Kind != ArgMacro || rules[2].Withs[0].Args[1].Text != "allowed" {
		t.Errorf("rule 2 wrong: %s", rules[2])
	}
	// skype update: to-port 80.
	if rules[4].ToPort.IsAny() || !rules[4].ToPort.Matches(80) || rules[4].ToPort.Matches(81) {
		t.Errorf("rule 4 port wrong: %s", rules[4])
	}
	// version check parses as lt with dict + literal args.
	w := rules[5].Withs[1]
	if w.Name != "lt" || w.Args[0].Kind != ArgDict || w.Args[0].Text != "src" || w.Args[0].Key != "version" || w.Args[1].Text != "200" {
		t.Errorf("rule 5 with wrong: %s", w)
	}
}

func TestParsePaperFigure5(t *testing.T) {
	src := `
table <research-machines> { 10.1.0.0/16 }
table <production-machines> { 10.2.0.0/16 }
dict <pubkeys> { \
  research : sk3ajfxfa932 \
  admin : a923jxa12kz \
}
# Allow only researchers to run applications
pass from <research-machines> \
     with member(@src[groupID], research) \
     to !<production-machines> \
     with member(@dst[groupID], research) \
     with allowed(@dst[requirements]) \
     with verify(@dst[req-sig], \
                 @pubkeys[research], \
                 @dst[exe-hash], \
                 @dst[app-name], \
                 @dst[requirements])
`
	f, err := Parse("fig5", src)
	if err != nil {
		t.Fatal(err)
	}
	var dict *DictDef
	for _, s := range f.Stmts {
		if d, ok := s.(*DictDef); ok {
			dict = d
		}
	}
	if dict == nil || dict.Name != "pubkeys" || dict.Pairs["research"] != "sk3ajfxfa932" {
		t.Fatalf("dict parse wrong: %+v", dict)
	}
	rules := f.Rules()
	if len(rules) != 1 {
		t.Fatalf("rule count = %d", len(rules))
	}
	r := rules[0]
	if len(r.Withs) != 4 {
		t.Fatalf("withs = %d, want 4", len(r.Withs))
	}
	v := r.Withs[3]
	if v.Name != "verify" || len(v.Args) != 5 {
		t.Fatalf("verify call wrong: %s", v)
	}
	if v.Args[1].Kind != ArgDict || v.Args[1].Text != "pubkeys" || v.Args[1].Key != "research" {
		t.Errorf("pubkeys arg wrong: %s", v.Args[1])
	}
}

func TestParseEmbeddedRequirements(t *testing.T) {
	// Figure 3's requirements value: two rules on one logical line —
	// statements are keyword-delimited.
	src := `pass from any port http with eq(@src[name], skype) pass from any port https with eq(@src[name], skype)`
	rules, err := ParseRules("fig3-req", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rule count = %d, want 2", len(rules))
	}
	if !rules[0].FromPort.Matches(80) || !rules[1].FromPort.Matches(443) {
		t.Errorf("ports wrong: %s / %s", rules[0], rules[1])
	}
}

func TestParseRulesRejectsDefinitions(t *testing.T) {
	if _, err := ParseRules("evil", `table <x> { 10.0.0.1 } pass all`); err == nil {
		t.Error("embedded table definition should be rejected")
	}
	if _, err := ParseRules("evil", `pk = "abc" pass all`); err == nil {
		t.Error("embedded macro definition should be rejected")
	}
}

func TestParseQuick(t *testing.T) {
	f, err := Parse("t", `pass quick from any to any block all`)
	if err != nil {
		t.Fatal(err)
	}
	rules := f.Rules()
	if len(rules) != 2 || !rules[0].Quick || rules[1].Quick {
		t.Fatalf("quick parse wrong: %v", f)
	}
}

func TestParsePortList(t *testing.T) {
	f, err := Parse("t", `pass from any to any port { 80 443 8000-8080 }`)
	if err != nil {
		t.Fatal(err)
	}
	pe := f.Rules()[0].ToPort
	for _, p := range []netaddr.Port{80, 443, 8000, 8080} {
		if !pe.Matches(p) {
			t.Errorf("port %d should match", p)
		}
	}
	for _, p := range []netaddr.Port{81, 7999, 8081} {
		if pe.Matches(p) {
			t.Errorf("port %d should not match", p)
		}
	}
}

func TestParseAddressList(t *testing.T) {
	f, err := Parse("t", `pass from { 10.0.0.1 192.168.0.0/16 } to any`)
	if err != nil {
		t.Fatal(err)
	}
	from := f.Rules()[0].From
	if from.Kind != AddrList || len(from.List) != 2 {
		t.Fatalf("list parse wrong: %s", from)
	}
}

func TestParseServiceNamePort(t *testing.T) {
	f, err := Parse("t", `pass from any port http to any port https`)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Rules()[0]
	if !r.FromPort.Matches(80) || !r.ToPort.Matches(443) {
		t.Error("service-name ports wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`pass from`,                     // missing address
		`pass from any to`,              // missing address
		`pass all from any`,             // all + from
		`pass from any from any`,        // duplicate from
		`pass from any to any with eq(`, // unterminated call
		`pass with eq(@src[], x)`,       // empty key
		`pass with eq(@src[userID, x)`,  // missing ]
		`table <t>`,                     // missing body
		`table <t> { bogus-addr }`,      // bad address
		`table <t> { 10.0.0.1`,          // unterminated
		`dict <d> { k }`,                // missing colon
		`dict <d> { k : }`,              // missing value
		`pass from any to any keep`,     // keep without state
		`frobnicate all`,                // unknown statement
		`pass with eq(<t>, x)`,          // table as function arg
	}
	for _, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseReportsLexicalErrorFirst pins the error order the parser keeps
// although it reads tokens one at a time: a lexical error anywhere in the
// unit is reported ahead of a parse error before it.
func TestParseReportsLexicalErrorFirst(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"pass from 10.0.0.999 to any\nblock ~ all\n", `t:2: unexpected character "~"`},
		{"frobnicate all\npass with eq(@src[name], \"open", `t:2: unterminated string`},
		{"pass from any to any keep\ntable <t { 10.0.0.1 }", `t:2: malformed table reference`},
		{"pass from bogus to any\n", `t:1: bad address "bogus"`},
	} {
		_, err := Parse("t", tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}

func TestLexStringText(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`"plain text"`, "plain text"},
		{"\"two\nlines\"", "two\nlines"},
		{"\"joined \\\nacross\"", "joined across"},
		{"\"\\\nlead\"", "lead"},
		{`"kept \\escape"`, `kept \\escape`},
	} {
		toks, err := lexAll("t", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].kind != tokString || toks[0].text != tc.want {
			t.Errorf("lex(%q) = %v %q, want string %q", tc.src, toks[0].kind, toks[0].text, tc.want)
		}
	}
}

func TestParseErrorsIncludePosition(t *testing.T) {
	_, err := Parse("myfile", "pass from any to any\nblock from bogus to any\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "myfile:2") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	srcs := []string{
		`block all`,
		`pass quick from <lan> to !<server> port 80 with eq(@src[name], skype) keep state`,
		`pass from any port http to { 10.0.0.1 10.0.0.2 } with member(@src[groupID], $grps)`,
		`block all with lt(@src[version], 200)`,
		`pass from 10.0.0.0/8 to any with verify(@src[req-sig], @pubkeys[Secur], @src[exe-hash])`,
	}
	defs := "table <lan> { 10.0.0.0/8 }\ntable <server> { 10.0.0.1 }\n"
	for _, src := range srcs {
		f, err := Parse("t", defs+src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := f.Rules()[0].String()
		f2, err := Parse("t2", defs+printed)
		if err != nil {
			t.Fatalf("reparse %q (printed from %q): %v", printed, src, err)
		}
		if got := f2.Rules()[0].String(); got != printed {
			t.Errorf("unstable round trip:\n  src     %q\n  printed %q\n  again   %q", src, printed, got)
		}
	}
}
