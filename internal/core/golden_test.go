package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares got with the golden file at path, or rewrites the
// file when update is set. A mismatch reports the first differing line and
// the line before it (in the corpora here, the input that produced it).
func checkGolden(t *testing.T, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (the -update-*golden flag of this test creates it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s drifted at line %d:\n got: %s\nwant: %s\n(previous line: %s)", path, i+1, gl[i], wl[i], gl[max(i-1, 0)])
		}
	}
	t.Fatalf("%s drifted: %d lines, golden has %d", path, len(gl), len(wl))
}
