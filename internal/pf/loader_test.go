package pf

import (
	"os"
	"path/filepath"
	"testing"
	"testing/fstest"
)

func TestLoadControlFSAlphabeticalOrder(t *testing.T) {
	// 99- must override 00-: last match wins only if files concatenate in
	// alphabetical order.
	fsys := fstest.MapFS{
		"00-base.control":  {Data: []byte("block all\n")},
		"99-final.control": {Data: []byte("pass from any to any\n")},
		"ignored.txt":      {Data: []byte("not a control file")},
	}
	p, err := LoadControlFS(fsys, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(p.Rules))
	}
	d := evaluate(t, p, Input{Flow: tcp("1.1.1.1", 1, "2.2.2.2", 2)})
	if d.Action != Pass {
		t.Error("99- file should evaluate after 00- file")
	}
}

func TestLoadControlFSReversedNamesReverseOutcome(t *testing.T) {
	fsys := fstest.MapFS{
		"00-base.control":  {Data: []byte("pass from any to any\n")},
		"99-final.control": {Data: []byte("block all\n")},
	}
	p, err := LoadControlFS(fsys, ".")
	if err != nil {
		t.Fatal(err)
	}
	d := evaluate(t, p, Input{Flow: tcp("1.1.1.1", 1, "2.2.2.2", 2)})
	if d.Action != Block {
		t.Error("block in 99- should win")
	}
}

func TestLoadControlFSEmpty(t *testing.T) {
	if _, err := LoadControlFS(fstest.MapFS{}, "."); err == nil {
		t.Error("empty dir should error")
	}
}

func TestLoadControlFSParseErrorNamesFile(t *testing.T) {
	fsys := fstest.MapFS{
		"10-bad.control": {Data: []byte("pass from bogus to any\n")},
	}
	_, err := LoadControlFS(fsys, ".")
	if err == nil {
		t.Fatal("expected parse error")
	}
	if got := err.Error(); got == "" || !contains(got, "10-bad.control") {
		t.Errorf("error should name the file: %v", err)
	}
}

func TestLoadControlDirOnDisk(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"00-header.control": "table <lan> { 10.0.0.0/8 }\nblock all\n",
		"50-app.control":    "pass from <lan> to any keep state\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := LoadControlDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := evaluate(t, p, Input{Flow: tcp("10.1.2.3", 1, "8.8.8.8", 443)})
	if d.Action != Pass || !d.KeepState {
		t.Errorf("decision = %+v", d)
	}
}

func TestLoadSourcesOrdering(t *testing.T) {
	p, err := LoadSources(map[string]string{
		"b.control": "pass from any to any\n",
		"a.control": "block all\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := evaluate(t, p, Input{Flow: tcp("1.1.1.1", 1, "2.2.2.2", 2)}); d.Action != Pass {
		t.Error("sources must sort by name before concatenation")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
