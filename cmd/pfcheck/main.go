// Command pfcheck parses, compiles and lints PF+=2 policies, and can
// evaluate a test flow against them — the offline companion an
// administrator runs before deploying .control files (§3.4).
//
// Usage:
//
//	pfcheck [-dir /etc/identxx.control.d | files...]
//	        [-explain]
//	        [-flow "tcp 10.0.0.1:4000 > 10.0.0.2:80"]
//	        [-src key=value]... [-dst key=value]...
//
// -explain dumps the compiled decision program: every rule with its
// static key-requirement set (which @src/@dst keys it can read, the
// basis of the controller's per-flow query hints), whether the
// header-only pre-pass can ever decide a flow under this policy, and what
// the dispatch index made of the header guards: the field it dispatches
// on, distinct values, residual size and worst-case candidates a decision
// scans.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"identxx/internal/flow"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

type kvList []string

func (l *kvList) String() string     { return strings.Join(*l, ",") }
func (l *kvList) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	dir := flag.String("dir", "", "directory of .control files (read in alphabetical order)")
	explain := flag.Bool("explain", false, "dump the compiled decision program and per-rule key sets")
	flowSpec := flag.String("flow", "", `flow to evaluate, e.g. "tcp 10.0.0.1:4000 > 10.0.0.2:80"`)
	var srcKV, dstKV kvList
	flag.Var(&srcKV, "src", "source-response key=value (repeatable)")
	flag.Var(&dstKV, "dst", "destination-response key=value (repeatable)")
	flag.Parse()

	var policy *pf.Policy
	var err error
	switch {
	case *dir != "":
		policy, err = pf.LoadControlDir(*dir)
	case flag.NArg() > 0:
		sources := map[string]string{}
		for _, name := range flag.Args() {
			b, rerr := os.ReadFile(name)
			if rerr != nil {
				fatal(rerr)
			}
			sources[name] = string(b)
		}
		policy, err = pf.LoadSources(sources)
	default:
		fmt.Fprintln(os.Stderr, "pfcheck: provide -dir or policy files")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("compiled: %d rules, %d tables, %d dicts, %d macros\n",
		len(policy.Rules), len(policy.Tables), len(policy.Dicts), len(policy.Macros))
	if keys := policy.ReferencedKeys(); len(keys) > 0 {
		fmt.Printf("ident++ keys the controller will query for: %s\n", strings.Join(keys, ", "))
	}
	if *explain {
		policy.Program().Explain(os.Stdout)
	} else {
		for i, r := range policy.Rules {
			fmt.Printf("  %3d  %s\n", i, r)
		}
	}

	if *flowSpec == "" {
		return
	}
	f, err := flow.ParseFive(*flowSpec)
	if err != nil {
		fatal(err)
	}
	in := pf.Input{Flow: f, Src: buildResp(f, srcKV), Dst: buildResp(f, dstKV)}
	d := policy.Evaluate(in)
	fmt.Printf("\nflow %s\n", f)
	fmt.Printf("decision: %s", d.Action)
	if d.Rule != nil {
		fmt.Printf(" (rule at %s: %s)", d.Rule.Pos, d.Rule)
	} else {
		fmt.Printf(" (default)")
	}
	fmt.Println()
	for _, diag := range d.Diags {
		fmt.Printf("diagnostic: %s\n", diag)
	}
	if d.Action == pf.Block {
		os.Exit(1)
	}
}

func buildResp(f flow.Five, kvs kvList) *wire.Response {
	if len(kvs) == 0 {
		return nil
	}
	r := wire.NewResponse(f)
	for _, kv := range kvs {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			fatal(fmt.Errorf("pfcheck: bad key=value %q", kv))
		}
		r.Add(kv[:eq], kv[eq+1:])
	}
	return r
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfcheck:", err)
	os.Exit(2)
}
