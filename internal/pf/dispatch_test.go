package pf

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// The dispatch index is checked three ways, all over rulesets big and
// mixed enough to build a real one (the curated corpus is 1–6 rules per
// policy): against the interpreter for verdicts, against the same program
// with the index taken away for hints and decidability, and as a property
// of the trace it leaves — the one megaflow widening rests on.

// chooser is where a generated ruleset's choices come from: a seeded PRNG
// for the deterministic tests, the fuzzer's bytes for FuzzDispatch.
type chooser func(n int) int

func seeded(seed int64) chooser {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn
}

// fromBytes reads one choice per byte and answers 0 once the input is used
// up, so every byte string is a valid (if dull) ruleset.
func fromBytes(data []byte) chooser {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// The value pools are small on purpose: rules collide on values, flows
// land in populated buckets, and two random flows often agree on a field.
var (
	genPorts = []int{22, 25, 53, 80, 443, 5060, 5061, 5062, 8080, 8443, 20000, 20001}
	genNames = []string{"web", "skype", "sshd", "httpd", "mail"}
)

func genIP(pick chooser) string { return fmt.Sprintf("10.0.%d.%d", pick(3), 1+pick(8)) }

// genProfile shapes a generated ruleset. exact is how often (percent) a
// rule guards each header field — source address, source port, destination
// address, destination port — with exact values; it steers which field
// lowering dispatches on. wild is how often a guard that is not exact is
// left open (`any`, no port): low for dense rulesets whose scans consult
// every field, high for the service-per-rule shape whose traces leave
// fields to widen over.
type genProfile struct {
	exact [4]int
	wild  int
}

const genPreamble = `table <lan> { 10.0.0.0/24 10.0.1.0/24 }
table <dmz> { 10.0.2.0/24 10.0.1.4 }
services = "{ web httpd mail }"
dict <site> { tier : gold }
`

func genAddr(pick chooser, exactPct, wildPct int) string {
	if pick(100) < exactPct {
		if pick(4) == 0 {
			return fmt.Sprintf("{ %s %s %s }", genIP(pick), genIP(pick), genIP(pick))
		}
		return genIP(pick)
	}
	if pick(100) < wildPct {
		return "any"
	}
	neg := ""
	if pick(6) == 0 {
		neg = "!"
	}
	switch pick(6) {
	case 0:
		return neg + "10.0.0.0/16"
	case 1:
		return neg + fmt.Sprintf("10.0.%d.0/24", pick(3))
	case 2:
		return neg + "<lan>"
	case 3:
		return neg + "<dmz>"
	case 4:
		return neg + fmt.Sprintf("{ %s 10.0.%d.0/24 }", genIP(pick), pick(3))
	}
	return "!" + genIP(pick)
}

func genPort(pick chooser, exactPct, wildPct int) string {
	port := func() int { return genPorts[pick(len(genPorts))] }
	if pick(100) < exactPct {
		if pick(4) == 0 {
			return fmt.Sprintf(" port { %d, %d, %d }", port(), port(), port())
		}
		return fmt.Sprintf(" port %d", port())
	}
	if pick(100) < wildPct {
		return ""
	}
	if pick(2) == 0 {
		lo := port()
		return fmt.Sprintf(" port %d-%d", lo, lo+pick(6000))
	}
	return fmt.Sprintf(" port { %d, %d-%d }", port(), 5000, 5100+pick(100))
}

func genWith(pick chooser) string {
	switch pick(12) {
	case 0:
		return fmt.Sprintf(" with eq(@src[name], %s)", genNames[pick(len(genNames))])
	case 1:
		return " with member(@dst[name], $services)"
	case 2:
		return " with lt(@src[version], 200)"
	case 3:
		return fmt.Sprintf(" with eq(@dst[name], %s) with eq(@src[name], %s)", genNames[pick(len(genNames))], genNames[pick(len(genNames))])
	case 4:
		return " with eq(@site[tier], gold)" // constant, true
	case 5:
		return " with eq(@site[tier], silver)" // constant, false
	case 6:
		if pick(4) == 0 {
			return " with eq($missing, 1)" // diagnoses on every evaluation
		}
	}
	return ""
}

// genRuleset writes n rules from the small grammar above. The opener is
// always `block all`, as in every configuration the paper shows.
func genRuleset(pick chooser, n int, prof genProfile) string {
	var b strings.Builder
	b.WriteString(genPreamble)
	b.WriteString("block all\n")
	for i := 1; i < n; i++ {
		action := "pass"
		if pick(3) == 0 {
			action = "block"
		}
		if pick(12) == 0 {
			action += " quick"
		}
		fmt.Fprintf(&b, "%s from %s%s to %s%s%s", action,
			genAddr(pick, prof.exact[0], prof.wild), genPort(pick, prof.exact[1], prof.wild),
			genAddr(pick, prof.exact[2], prof.wild), genPort(pick, prof.exact[3], prof.wild), genWith(pick))
		if pick(3) == 0 {
			b.WriteString(" keep state")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func genFlow(pick chooser) flow.Five {
	port := func() netaddr.Port {
		if pick(5) == 0 {
			return netaddr.Port(1024 + pick(60000))
		}
		return netaddr.Port(genPorts[pick(len(genPorts))])
	}
	return flow.Five{
		SrcIP: netaddr.MustParseIP(genIP(pick)), DstIP: netaddr.MustParseIP(genIP(pick)),
		Proto: netaddr.ProtoTCP, SrcPort: port(), DstPort: port(),
	}
}

// endResponse is the answer the daemon at one end of f gives. It is a
// function of that end's address and port alone — the premise traces pin
// an end's addressing on (vm.go, traceSrcEndpointRead).
func endResponse(f flow.Five, ip netaddr.IP, port netaddr.Port) *wire.Response {
	h := uint32(ip)*31 + uint32(port)
	version := "150"
	if h%3 == 0 {
		version = "210"
	}
	return resp(f, "name", genNames[h%uint32(len(genNames))], "version", version)
}

func genInput(f flow.Five) Input {
	return Input{Flow: f, Src: endResponse(f, f.SrcIP, f.SrcPort), Dst: endResponse(f, f.DstIP, f.DstPort)}
}

// withoutIndex returns pr scanning every rule: the reference for what the
// index may not change.
func withoutIndex(pr *Program) *Program {
	lin := *pr
	lin.index = dispatchIndex{worst: len(pr.rules)}
	return &lin
}

func sameVerdict(a, b Decision) bool {
	return a.Action == b.Action && a.Rule == b.Rule && a.Matched == b.Matched &&
		a.KeepState == b.KeepState && reflect.DeepEqual(a.Diags, b.Diags)
}

// checkDispatch holds p's indexed program to the interpreter and to its
// own linear scan on every flow. It reports the first disagreement.
func checkDispatch(t testing.TB, p *Policy, flows []flow.Five) {
	t.Helper()
	prog := p.Program()
	lin := withoutIndex(prog)
	for _, f := range flows {
		for _, in := range []Input{{Flow: f}, genInput(f)} {
			want := p.EvaluateInterpreted(in)
			if got := p.EvaluateCompiled(in); !sameVerdict(got, want) {
				t.Fatalf("flow %s: compiled %+v, interpreter %+v", f, got, want)
			}
			if got, _ := p.EvaluateTraced(in); !sameVerdict(got, want) {
				t.Fatalf("flow %s: traced %+v, interpreter %+v", f, got, want)
			}
		}
		d, ok, src, dst := prog.Prepass(f, nil, nil)
		ld, lok, lsrc, ldst := lin.Prepass(f, nil, nil)
		if ok != lok || !sameVerdict(d, ld) || !reflect.DeepEqual(src, lsrc) || !reflect.DeepEqual(dst, ldst) {
			t.Fatalf("flow %s: Prepass (%+v, %v, %v, %v), linear scan (%+v, %v, %v, %v)", f, d, ok, src, dst, ld, lok, lsrc, ldst)
		}
		if want := p.EvaluateInterpreted(Input{Flow: f}); ok && !sameVerdict(d, want) {
			t.Fatalf("flow %s: Prepass decided %+v, interpreter without responses %+v", f, d, want)
		}
		src, dst = prog.Hints(f, nil, nil)
		lsrc, ldst = lin.Hints(f, nil, nil)
		if !reflect.DeepEqual(src, lsrc) || !reflect.DeepEqual(dst, ldst) {
			t.Fatalf("flow %s: Hints (%v, %v), linear scan (%v, %v)", f, src, dst, lsrc, ldst)
		}
	}
}

func genFlows(pick chooser, n int) []flow.Five {
	flows := make([]flow.Five, n)
	for i := range flows {
		flows[i] = genFlow(pick)
	}
	return flows
}

// TestDispatchGeneratedRulesets runs the differential checks over
// rulesets that steer lowering onto each header field in turn, and onto
// none.
func TestDispatchGeneratedRulesets(t *testing.T) {
	cases := []struct {
		name  string
		prof  genProfile
		rules int
		field uint8
	}{
		{"source address", genProfile{[4]int{90, 5, 20, 20}, 50}, 300, TraceSrcIP},
		{"source port", genProfile{[4]int{10, 95, 10, 30}, 50}, 300, TraceSrcPort},
		{"destination address", genProfile{[4]int{20, 5, 90, 20}, 50}, 300, TraceDstIP},
		{"destination port", genProfile{[4]int{10, 5, 10, 95}, 50}, 400, TraceDstPort},
		{"mixed", genProfile{[4]int{40, 10, 40, 60}, 30}, 350, TraceDstPort},
		{"service per rule", genProfile{[4]int{2, 0, 2, 95}, 97}, 320, TraceDstPort},
		{"tiny", genProfile{[4]int{10, 5, 10, 90}, 50}, 4, TraceDstPort},
		{"nothing exact", genProfile{[4]int{}, 40}, 120, 0},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pick := seeded(int64(100 + i))
			p := MustCompile("gen", genRuleset(pick, tc.rules, tc.prof))
			ix := &p.Program().index
			if ix.field != tc.field {
				t.Fatalf("dispatch on %q, want %q", fieldNames[ix.field], fieldNames[tc.field])
			}
			if ix.field != 0 && ix.worst >= tc.rules {
				t.Fatalf("index kept with worst case %d of %d rules", ix.worst, tc.rules)
			}
			checkDispatch(t, p, genFlows(pick, 2000))
		})
	}
}

// TestDispatchIndexShape pins the flat layout on a ruleset small enough to
// read: buckets in key order, rule order inside each, the residual last.
func TestDispatchIndexShape(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any port 443
pass from any to any port { 80, 443, 80 }
pass from any to any port 1000-2000
block from any to any port 80
pass from any port 80 to any
`)
	ix := p.Program().index
	want := dispatchIndex{
		field: TraceDstPort,
		keys:  []uint32{80, 443},
		offs:  []int32{0, 2, 4},
		ids:   []int32{2, 4, 1, 2, 0, 3, 5},
		worst: 5,
	}
	if !reflect.DeepEqual(ix, want) {
		t.Errorf("index = %+v\nwant    %+v", ix, want)
	}
	// A flow to port 80 sees rules 0, 2, 3, 4, 5 in that order; one to
	// port 22 only the residual.
	for port, want := range map[netaddr.Port][]int{80: {0, 2, 3, 4, 5}, 443: {0, 1, 2, 3, 5}, 22: {0, 3, 5}} {
		var got []int
		it := p.Program().candidates(nil, tcp("1.1.1.1", 1, "2.2.2.2", port))
		for i := it.pop(); i >= 0; i = it.pop() {
			got = append(got, i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("port %d candidates = %v, want %v", port, got, want)
		}
	}
}

// TestRegisterRebuildsDispatch: replacing a built-in re-lowers the
// program, and the new program carries a fresh index that still answers
// as the interpreter does.
func TestRegisterRebuildsDispatch(t *testing.T) {
	pick := seeded(7)
	p := MustCompile("gen", genRuleset(pick, 300, genProfile{[4]int{10, 5, 10, 95}, 50}))
	before := p.Program()
	p.Register("lt", func(_ *Ctx, args []Value) (bool, error) {
		return len(args) == 2 && args[0].Present, nil
	})
	after := p.Program()
	if after == before {
		t.Fatal("Register of an overridden built-in did not re-lower")
	}
	if after.index.field != TraceDstPort || !reflect.DeepEqual(after.index, before.index) {
		t.Errorf("re-lowered index = %+v\nwant the header guards' index again: %+v", after.index, before.index)
	}
	if &after.index.ids[0] == &before.index.ids[0] {
		t.Error("re-lowered program shares the old program's index storage")
	}
	unbounded := 0
	for i := range after.rules {
		if after.rules[i].srcAll {
			unbounded++
		}
	}
	if unbounded == 0 {
		t.Fatal("no rule calls the overridden built-in; the ruleset does not test the re-lowering")
	}
	checkDispatch(t, p, genFlows(pick, 1000))
}

// TestTraceWideningSoundness is the property the megaflow cache rests on:
// two flows that agree on every field the founder's evaluation traced get
// the same verdict. Each member is its founder with every untraced field
// redrawn, so a pair differs exactly where the trace says it is safe to —
// in the dispatch field too, whenever the index and not a guard was what
// kept a rule from being looked at.
func TestTraceWideningSoundness(t *testing.T) {
	// Sparse shapes only: one exact guard per rule and little else, what
	// delegates write. Scans of a dense ruleset consult every field, so
	// their traces leave nothing to widen (TestDispatchGeneratedRulesets
	// covers those for verdicts).
	profiles := []genProfile{
		{[4]int{2, 0, 2, 95}, 97}, // a service port per rule
		{[4]int{90, 0, 1, 3}, 97}, // a client host per rule
		{[4]int{1, 0, 90, 3}, 97}, // a server host per rule
		{[4]int{3, 90, 3, 3}, 95},
	}
	const rulesets, founders = 5, 2000 // per profile: 10k flow pairs
	for _, prof := range profiles {
		widened := 0
		for seed := int64(1); seed <= rulesets; seed++ {
			pick := seeded(seed)
			p := MustCompile("gen", genRuleset(pick, 320, prof))
			if p.Program().index.field == 0 {
				t.Fatalf("profile %v seed %d built no index; the property would not cover it", prof, seed)
			}
			for n := 0; n < founders; n++ {
				a, other := genFlow(pick), genFlow(pick)
				da, tr := p.EvaluateTraced(genInput(a))
				b := tr.Mask(a)
				if tr.Fields&TraceSrcIP == 0 {
					b.SrcIP = other.SrcIP
				}
				if tr.Fields&TraceSrcPort == 0 {
					b.SrcPort = other.SrcPort
				}
				if tr.Fields&TraceDstIP == 0 {
					b.DstIP = other.DstIP
				}
				if tr.Fields&TraceDstPort == 0 {
					b.DstPort = other.DstPort
				}
				if b == a {
					continue
				}
				widened++
				db := p.Evaluate(genInput(b))
				if da.Action != db.Action || da.Rule != db.Rule || da.Matched != db.Matched || da.KeepState != db.KeepState {
					t.Fatalf("profile %v seed %d: %s traced %04b and got %v by %v;\n%s is in its class and got %v by %v",
						prof, seed, a, tr.Fields, da.Action, da.Rule, b, db.Action, db.Rule)
				}
			}
		}
		if widened < rulesets*founders/20 {
			t.Errorf("profile %v: only %d of %d founders had a class to widen to; the property is near vacuous", prof, widened, rulesets*founders)
		}
	}
}

// FuzzDispatch turns bytes into a ruleset from the generator's grammar
// plus probe flows and holds the indexed program to the interpreter and
// to its own linear scan (checkDispatch).
func FuzzDispatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 90, 5, 10, 95, 50, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := fromBytes(data)
		n := 1 + pick(80)
		prof := genProfile{[4]int{pick(101), pick(101), pick(101), pick(101)}, pick(101)}
		p := MustCompile("fuzz", genRuleset(pick, n, prof))
		checkDispatch(t, p, genFlows(pick, 16))
	})
}
