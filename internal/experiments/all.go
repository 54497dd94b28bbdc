package experiments

import (
	"io"

	"identxx/internal/flow"
	"identxx/internal/wire"
)

// Runner is one experiment driver.
type Runner struct {
	ID  string
	Run func(w io.Writer) *Table
}

// All lists the figure/section experiments in order.
var All = []Runner{
	{"E1", RunE1},
	{"E2", RunE2},
	{"E3", RunE3},
	{"E4", RunE4},
	{"E5", RunE5},
	{"E6", RunE6},
	{"E7", RunE7},
	{"E8", RunE8},
	{"E9", RunE9},
	{"E10", RunE10},
}

// respWith builds a single-section response from a map (test/bench helper).
func respWith(f flow.Five, kv map[string]string) *wire.Response {
	r := wire.NewResponse(f)
	// Deterministic order is irrelevant to evaluation; insert directly.
	for k, v := range kv {
		r.Add(k, v)
	}
	return r
}
