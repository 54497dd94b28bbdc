package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's tables")

// wallClock names, per experiment, the columns that are wall-clock
// measurements: they vary run to run, so the golden tables mask them. E1's
// notes describe that measurement and are left out with them.
var wallClock = map[string][]string{
	"E1": {"query-src", "query-dst", "eval", "total(p50)"},
	"E9": {"latency"},
}

// TestGoldenTables pins the reproduction: every experiment's title, header,
// rows and notes must print byte for byte as testdata/<id>.golden holds
// them, except the wall-clock columns. The goldens change only with a
// deliberate change to what an experiment claims (go test -run
// GoldenTables -update).
func TestGoldenTables(t *testing.T) {
	for _, r := range All {
		t.Run(r.ID, func(t *testing.T) {
			got := goldenText(r.Run(io.Discard))
			path := filepath.Join("testdata", r.ID+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", r.ID, path, got, want)
			}
		})
	}
}

// goldenText prints tab as Fprint does, with its wall-clock cells masked.
func goldenText(tab *Table) []byte {
	masked := *tab
	masked.Rows = make([][]string, len(tab.Rows))
	for i, row := range tab.Rows {
		masked.Rows[i] = slices.Clone(row)
		for j := range row {
			if j < len(tab.Header) && slices.Contains(wallClock[tab.ID], tab.Header[j]) {
				masked.Rows[i][j] = "*"
			}
		}
	}
	if tab.ID == "E1" {
		masked.Notes = nil
	}
	var buf bytes.Buffer
	masked.Fprint(&buf)
	return buf.Bytes()
}
