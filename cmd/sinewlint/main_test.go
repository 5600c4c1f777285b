package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

var corpus = filepath.Join("..", "..", "internal", "lint", "testdata", "src")

// The golden corpus seeds at least one violation per check; pointing the
// CLI at it must exit 1 and name every check.
func TestSeededViolationsExitNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-C", corpus, "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run() = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, id := range []string{
		"sinew/close-propagation", "sinew/mutex-guard", "sinew/datum-switch",
		"sinew/plan-cache-key", "sinew/unchecked-error", "sinew/bad-ignore",
		"sinew/atomic-consistency", "sinew/batch-escape", "sinew/epoch-order",
	} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("output missing %s findings:\n%s", id, out.String())
		}
	}
	if !strings.Contains(errb.String(), "issue(s) found") {
		t.Errorf("stderr missing summary line: %q", errb.String())
	}
}

// A package pattern restricts the report to that subtree.
func TestPatternFilter(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-C", corpus, "./storage"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run() = %d, want 1\nstderr: %s", code, errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, "storage/") {
			t.Errorf("diagnostic outside ./storage: %q", line)
		}
	}
	if !strings.Contains(out.String(), "sinew/unchecked-error") {
		t.Errorf("expected unchecked-error findings under ./storage:\n%s", out.String())
	}
}

func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 12 {
		t.Fatalf("want 12 registered checks, got %d:\n%s", len(lines), out.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "sinew/") {
			t.Errorf("check line missing sinew/ prefix: %q", l)
		}
	}
}

// -json emits machine-readable diagnostics with module-relative paths.
func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-C", corpus, "-json", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run(-json) = %d, want 1\nstderr: %s", code, errb.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("JSON output carries no diagnostics")
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 {
			t.Errorf("diagnostic missing position: %+v", d)
		}
		if filepath.IsAbs(d.File) || strings.Contains(d.File, `\`) {
			t.Errorf("file should be module-relative slash-separated, got %q", d.File)
		}
		if !strings.HasPrefix(d.Check, "sinew/") {
			t.Errorf("check missing sinew/ prefix: %q", d.Check)
		}
	}
}

// -v reports one wall-time line per check on stderr.
func TestVerboseTimings(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-C", corpus, "-v", "./..."}, &out, &errb)
	for _, id := range []string{"sinew/atomic-consistency", "sinew/batch-escape", "sinew/epoch-order", "sinew/mutex-guard"} {
		if !strings.Contains(errb.String(), id) {
			t.Errorf("verbose stderr missing a timing line for %s:\n%s", id, errb.String())
		}
	}
}

func TestMissingModuleRoot(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", t.TempDir(), "./..."}, &out, &errb); code != 2 {
		t.Fatalf("run() on a moduleless directory = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "go.mod") {
		t.Errorf("stderr should mention the missing go.mod: %q", errb.String())
	}
}
