// Package lint is sinewlint's engine: a stdlib-only static analyzer that
// enforces project invariants the Go compiler cannot see — Close()
// propagation through iterator trees (pager byte accounting), mutex
// discipline on shared structs, exhaustive switches over the engine's type
// tags, plan-cache key completeness for session variables, and discarded
// errors on the storage/serialization paths. Checks run over the whole
// type-checked module (see load.go) and report file:line diagnostics with
// a stable check ID; deliberate exceptions are silenced in source with
//
//	//lint:ignore sinew/<check-id> <reason>
//
// placed on the flagged line, the line above it, or in the doc comment of
// the enclosing declaration (which silences the whole declaration). The
// reason is mandatory: an unexplained suppression is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string // full ID, e.g. "sinew/close-propagation"
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is a single analysis. Run is called once per module package, in
// import-path order; a check may accumulate state across packages.
type Check interface {
	// ID is the short check name; the reported ID is "sinew/" + ID().
	ID() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	Run(pass *Pass)
}

// ModuleCheck is implemented by checks that need a whole-module view:
// Finish runs once after every package has been visited.
type ModuleCheck interface {
	Check
	Finish(pass *Pass)
}

// PkgParallel marks a check whose Run calls are independent across
// packages — no state accumulates between them — so the driver may fan
// its packages out across goroutines. Checks that build module-wide maps
// (PlanCacheKey, AtomicConsistency) must NOT carry the marker: their
// packages run in import-path order on one goroutine.
type PkgParallel interface {
	Check
	PackageParallel()
}

// Pass hands one package (or, for Finish, the whole program) to a check.
type Pass struct {
	Prog *Program
	Pkg  *Package // nil during ModuleCheck.Finish
	id   string
	out  *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:     p.Prog.Fset.Position(pos),
		Check:   "sinew/" + p.id,
		Message: fmt.Sprintf(format, args...),
	})
}

// Registry returns the full check suite in reporting order.
func Registry() []Check {
	return []Check{
		&ClosePropagation{},
		&MutexGuard{},
		&EnumSwitch{},
		&PlanCacheKey{},
		&UncheckedError{},
		&SelInvariant{},
		&SnapshotPin{},
		&AtomicConsistency{},
		&BatchEscape{},
		&EpochOrder{},
		&CatalogView{},
		&UnsafeConfined{},
	}
}

// Run executes the given checks over the program and returns surviving
// diagnostics sorted by position. Suppressed findings are dropped;
// malformed //lint:ignore directives are reported as sinew/bad-ignore.
func Run(prog *Program, checks []Check) []Diagnostic {
	diags, _ := RunTimed(prog, checks)
	return diags
}

// CheckTiming is one check's wall time and surviving-finding-independent
// raw diagnostic count, for `sinewlint -v`.
type CheckTiming struct {
	ID       string
	Elapsed  time.Duration
	Findings int
}

// RunTimed is Run with per-check wall times. Checks execute concurrently,
// each on its own goroutine with a private diagnostic slice; a check
// carrying the PkgParallel marker additionally fans its packages out.
// Merging happens in registry then package order, so output is identical
// to the old sequential driver.
func RunTimed(prog *Program, checks []Check) ([]Diagnostic, []CheckTiming) {
	perCheck := make([][]Diagnostic, len(checks))
	timings := make([]CheckTiming, len(checks))
	var wg sync.WaitGroup
	for ci, c := range checks {
		wg.Add(1)
		go func(ci int, c Check) {
			defer wg.Done()
			start := time.Now()
			if _, fan := c.(PkgParallel); fan && len(prog.Packages) > 1 {
				perPkg := make([][]Diagnostic, len(prog.Packages))
				var pwg sync.WaitGroup
				for pi, pkg := range prog.Packages {
					pwg.Add(1)
					go func(pi int, pkg *Package) {
						defer pwg.Done()
						c.Run(&Pass{Prog: prog, Pkg: pkg, id: c.ID(), out: &perPkg[pi]})
					}(pi, pkg)
				}
				pwg.Wait()
				for _, d := range perPkg {
					perCheck[ci] = append(perCheck[ci], d...)
				}
			} else {
				for _, pkg := range prog.Packages {
					c.Run(&Pass{Prog: prog, Pkg: pkg, id: c.ID(), out: &perCheck[ci]})
				}
			}
			if mc, ok := c.(ModuleCheck); ok {
				mc.Finish(&Pass{Prog: prog, id: c.ID(), out: &perCheck[ci]})
			}
			timings[ci] = CheckTiming{ID: "sinew/" + c.ID(), Elapsed: time.Since(start), Findings: len(perCheck[ci])}
		}(ci, c)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perCheck {
		diags = append(diags, d...)
	}
	sup := collectSuppressions(prog)
	diags = append(diags, sup.malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.matches(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Check < kept[j].Check
	})
	return kept, timings
}

// ---------- //lint:ignore suppression ----------

var ignoreRx = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// suppression is one directive's effect: check ID over a line range of a
// file. A bare directive covers its own line and the next; a directive in
// a declaration's doc comment covers the whole declaration.
type suppression struct {
	file     string
	check    string
	from, to int
}

type suppressionSet struct {
	byFile    map[string][]suppression
	malformed []Diagnostic
}

func (s *suppressionSet) matches(d Diagnostic) bool {
	for _, sup := range s.byFile[d.Pos.Filename] {
		if sup.check == d.Check && d.Pos.Line >= sup.from && d.Pos.Line <= sup.to {
			return true
		}
	}
	return false
}

func collectSuppressions(prog *Program) *suppressionSet {
	set := &suppressionSet{byFile: make(map[string][]suppression)}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			file := prog.Fset.File(f.Pos())
			if file == nil {
				continue
			}
			// Map doc-comment extents so a directive inside a declaration's
			// doc comment covers the whole declaration.
			type span struct{ docFrom, docTo, declTo int }
			var spans []span
			for _, decl := range f.Decls {
				var doc *ast.CommentGroup
				switch d := decl.(type) {
				case *ast.FuncDecl:
					doc = d.Doc
				case *ast.GenDecl:
					doc = d.Doc
				}
				if doc != nil {
					spans = append(spans, span{
						docFrom: prog.Fset.Position(doc.Pos()).Line,
						docTo:   prog.Fset.Position(doc.End()).Line,
						declTo:  prog.Fset.Position(decl.End()).Line,
					})
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRx.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					check, reason := m[1], strings.TrimSpace(m[2])
					if reason == "" {
						set.malformed = append(set.malformed, Diagnostic{
							Pos:     pos,
							Check:   "sinew/bad-ignore",
							Message: fmt.Sprintf("//lint:ignore %s needs a reason: every suppression must say why the invariant does not apply", check),
						})
						continue
					}
					sup := suppression{file: pos.Filename, check: check, from: pos.Line, to: pos.Line + 1}
					for _, sp := range spans {
						if pos.Line >= sp.docFrom && pos.Line <= sp.docTo {
							sup.to = sp.declTo
							break
						}
					}
					set.byFile[sup.file] = append(set.byFile[sup.file], sup)
				}
			}
		}
	}
	return set
}
