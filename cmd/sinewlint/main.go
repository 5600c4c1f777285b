// Command sinewlint is the project's static analyzer: it loads the whole
// module with the standard library's go/ast + go/types (no external
// dependencies, matching the module's stdlib-only policy) and runs a suite
// of Sinew-specific checks — invariants the Go compiler cannot express.
// Positional checks cover resource and API discipline:
//
//	sinew/close-propagation  operators forward Close() so pager byte
//	                         accounting stays exact (worker hand-offs to
//	                         a WaitGroup-joined goroutine are proven)
//	sinew/mutex-guard        mutex-guarded fields are never touched
//	                         without the lock, path-sensitively
//	sinew/datum-switch       switches over the engine's type tags are
//	                         exhaustive
//	sinew/plan-cache-key     plan-shaping session variables are part of
//	                         the plan-cache key
//	sinew/unchecked-error    storage/serial/exec never silently drop
//	                         errors
//	sinew/sel-invariant      selection vectors are honored when indexing
//	                         batch columns
//	sinew/snapshot-pin       live heap scans pin a snapshot first
//	sinew/unsafe-confined    "unsafe" and types.Datum{…} literals with
//	                         fields stay inside internal/rdbms/types
//
// and four flow-sensitive checks run on a per-function CFG with a
// must/may dataflow solver (internal/lint/cfg.go, dataflow.go):
//
//	sinew/atomic-consistency a field accessed through sync/atomic
//	                         anywhere is never read or written plainly
//	sinew/batch-escape       pooled RowBatches are cloned before crossing
//	                         a channel and never used after release
//	sinew/epoch-order        DDL/ANALYZE handlers bump the catalog epoch
//	                         before publishing the heap snapshot
//	sinew/catalog-view       column state copied into schema views is
//	                         written only by catalog mutators that
//	                         invalidate the view on every path
//
// Usage:
//
//	sinewlint [-C dir] [-list] [-json] [-v] [./...]
//
// Diagnostics print as file:line:col: check-id: message (or, with -json,
// as a JSON array of {file,line,col,check,message} objects for tooling
// such as the CI problem matcher), and a non-empty report exits 1
// (load/usage failures exit 2). -v prints per-check wall time to stderr;
// checks run concurrently, so the sum exceeds the real elapsed time.
// Suppress a deliberate exception in source with
// `//lint:ignore sinew/<id> reason`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/sinewdata/sinew/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire shape, consumed by the GitHub Actions
// problem matcher and any editor integration.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sinewlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root (directory containing go.mod), or any directory beneath it")
	list := fs.Bool("list", false, "list registered checks and exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	verbose := fs.Bool("v", false, "print per-check wall time to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	checks := lint.Registry()
	if *list {
		for _, c := range checks {
			fmt.Fprintf(stdout, "sinew/%s\t%s\n", c.ID(), c.Doc())
		}
		return 0
	}
	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "sinewlint:", err)
		return 2
	}
	prog, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "sinewlint:", err)
		return 2
	}
	diags, timings := lint.RunTimed(prog, checks)
	diags = filterByPatterns(diags, root, fs.Args())
	if *verbose {
		for _, tm := range timings {
			fmt.Fprintf(stderr, "sinewlint: %-28s %10s  %d finding(s)\n", tm.ID, tm.Elapsed.Round(10*time.Microsecond), tm.Findings)
		}
	}
	relName := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: filepath.ToSlash(relName(d.Pos.Filename)), Line: d.Pos.Line, Col: d.Pos.Column,
				Check: d.Check, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "sinewlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: sinewlint: %s: %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "sinewlint: %d issue(s) found\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}

// filterByPatterns keeps diagnostics under the requested package patterns.
// The supported forms mirror the go tool: "./..." (everything, the
// default), "./dir/..." (a subtree), and "./dir" (one directory).
func filterByPatterns(diags []lint.Diagnostic, root string, patterns []string) []lint.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	keep := diags[:0]
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			keep = append(keep, d)
			continue
		}
		rel = filepath.ToSlash(rel)
		for _, p := range patterns {
			if matchPattern(rel, p) {
				keep = append(keep, d)
				break
			}
		}
	}
	return keep
}

func matchPattern(relFile, pattern string) bool {
	pattern = strings.TrimPrefix(filepath.ToSlash(pattern), "./")
	dir := "."
	if i := strings.LastIndex(relFile, "/"); i >= 0 {
		dir = relFile[:i]
	}
	switch {
	case pattern == "..." || pattern == "":
		return true
	case strings.HasSuffix(pattern, "/..."):
		prefix := strings.TrimSuffix(pattern, "/...")
		return dir == prefix || strings.HasPrefix(dir, prefix+"/")
	default:
		return dir == pattern
	}
}
