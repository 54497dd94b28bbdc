// Command identquery is the ident++ client: it asks a daemon about a flow
// and prints the key-value response, sections delimited as on the wire, and
// the answer's scope line when the daemon gave it at a listener's scope.
//
// It asks through the same pooled, pipelined transport (internal/query's
// Pool) the controller's query engine runs over, so the CLI exercises the
// production wire path rather than a hand-rolled dial. It asks once: a CLI
// user retries themselves, so the engine's retries and breaker add nothing.
//
// Usage:
//
//	identquery -addr 192.168.0.5:783 "tcp 192.168.0.5:40000 > 192.168.1.1:80" [key...]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"identxx/internal/flow"
	"identxx/internal/query"
	"identxx/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:783", "daemon address")
	timeout := flag.Duration("timeout", 3*time.Second, "query timeout")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, `usage: identquery -addr host:783 "tcp a.b.c.d:sp > e.f.g.h:dp" [key...]`)
		os.Exit(2)
	}
	f, err := flow.ParseFive(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "identquery:", err)
		os.Exit(2)
	}
	pool := query.NewPool(query.PoolConfig{
		Resolver:       query.FixedResolver(*addr),
		RequestTimeout: *timeout,
	})
	defer pool.Close()
	// The daemon answers about the flow; which endpoint "owns" it only
	// matters for address resolution, and the resolver pins that to -addr.
	resp, _, err := pool.Query(f.SrcIP, wire.Query{Flow: f, Keys: flag.Args()[1:]})
	if err != nil {
		fmt.Fprintln(os.Stderr, "identquery:", err)
		os.Exit(1)
	}
	for i, sec := range resp.Sections {
		if i > 0 {
			fmt.Println()
		}
		for _, p := range sec.Pairs {
			fmt.Printf("%s: %s\n", p.Key, p.Value)
		}
	}
	if resp.Scope.Listener() {
		fmt.Printf("scope: %s\n", resp.Scope)
	}
}
