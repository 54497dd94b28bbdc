// Command identxx-bench runs the paper's experiments (E1-E10) over the
// simulator and prints each one's table, in plain text or markdown.
//
// Usage:
//
//	identxx-bench [-markdown] [-only E6]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"identxx/internal/experiments"
)

func main() {
	markdown := flag.Bool("markdown", false, "emit GitHub markdown tables")
	only := flag.String("only", "", "run a single experiment id (e.g. E3)")
	flag.Parse()

	ran := 0
	for _, r := range experiments.All {
		if *only != "" && r.ID != *only {
			continue
		}
		ran++
		if *markdown {
			tab := r.Run(io.Discard)
			tab.Markdown(os.Stdout)
		} else {
			r.Run(os.Stdout)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "identxx-bench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
