package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ignorePlacementFixture exercises every legal and illegal placement of a
// "//secmemlint:ignore" comment. Lines marked WANT must still be reported;
// every other bytes.Equal call is suppressed by a correctly placed ignore.
// A line marked "WANT ignore" holds a suppression naming no analyzer, which
// is reported itself.
const ignorePlacementFixture = `package fixture

import "bytes"

func plain(mac, other []byte) bool {
	return bytes.Equal(mac, other) // WANT
}

func trailing(mac, other []byte) bool {
	return bytes.Equal(mac, other) //secmemlint:ignore maccompare test fixture: trailing comment suppresses its own line
}

func standalone(mac, other []byte) bool {
	//secmemlint:ignore maccompare test fixture: standalone comment suppresses the line below
	return bytes.Equal(mac, other)
}

func noBleed(mac, other []byte) bool {
	a := bytes.Equal(mac, other) //secmemlint:ignore maccompare test fixture: must not leak onto the next line
	b := bytes.Equal(mac, other) // WANT
	return a && b
}

func standaloneGap(mac, other []byte) bool {
	//secmemlint:ignore maccompare test fixture: a blank line breaks the attachment

	return bytes.Equal(mac, other) // WANT
}

func unknownName(mac, other []byte) bool {
	//secmemlint:ignore nosuch test fixture: a name outside the suite silences nothing // WANT ignore
	return bytes.Equal(mac, other) // WANT
}
`

// TestIgnorePlacement pins the suppression semantics: a trailing ignore
// comment silences only its own line, a standalone ignore comment silences
// only the line immediately below it, and an ignore naming no analyzer of
// All() is reported even when the run selects a single analyzer.
func TestIgnorePlacement(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module ignorefixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "fixture.go"), ignorePlacementFixture)

	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture does not typecheck: %v", terr)
		}
	}

	wantLines := make(map[int]string) // line -> analyzer
	for i, line := range strings.Split(ignorePlacementFixture, "\n") {
		switch {
		case strings.HasSuffix(line, "// WANT"):
			wantLines[i+1] = "maccompare"
		case strings.HasSuffix(line, "// WANT ignore"):
			wantLines[i+1] = "ignore"
		}
	}
	if len(wantLines) != 5 {
		t.Fatalf("fixture self-check: expected 5 WANT markers, found %d", len(wantLines))
	}

	gotLines := make(map[int]string)
	for _, d := range Run(pkgs, []*Analyzer{MacCompare}) {
		if gotLines[d.Line] != "" {
			t.Errorf("duplicate diagnostic on line %d", d.Line)
		}
		gotLines[d.Line] = d.Analyzer
	}
	for line, analyzer := range wantLines {
		if gotLines[line] != analyzer {
			t.Errorf("line %d: expected a finding from %s, got %q", line, analyzer, gotLines[line])
		}
	}
	for line := range gotLines {
		if wantLines[line] == "" {
			t.Errorf("line %d: unexpected finding; a misplaced ignore failed to suppress (or suppression leaked)", line)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
