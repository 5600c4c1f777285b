package lint

import (
	"go/ast"
	"go/types"
)

// SnapshotPin enforces the snapshot read discipline that makes concurrent
// sessions sound (DESIGN.md §10). A live Heap's scan-entry methods — Scan,
// IterateChunks, Get — read the mutable page table, which writers
// republish in place; calling them outside the package that owns the heap
// races with every concurrent INSERT/UPDATE/ANALYZE unless the caller
// holds the table's write lock. Reader code must instead pin an immutable
// view first (Heap.CurrentSnapshot, Heap.AcquireSnapshot, or ExecCtx.View)
// and scan that: the same methods on HeapSnapshot, or through the
// ReadView interface, are safe by construction because a snapshot's page
// table never changes after Publish. The storage package itself is exempt
// — it is the implementation being wrapped — and a legitimate under-lock
// use documents itself with an ignore directive naming the check and a
// reason.
type SnapshotPin struct{}

// ID implements Check.
func (*SnapshotPin) ID() string { return "snapshot-pin" }

// Doc implements Check.
func (*SnapshotPin) Doc() string {
	return "live Heap scans outside storage must pin a snapshot (CurrentSnapshot/AcquireSnapshot/ExecCtx.View) or hold the table write lock"
}

// snapshotScanEntries are the Heap methods that walk the mutable page
// table. Mutators (Insert, Update, Delete) are not listed: they are
// write-lock territory by definition and MutexGuard covers that side.
var snapshotScanEntries = map[string]bool{
	"Scan":          true,
	"IterateChunks": true,
	"Get":           true,
}

// Run implements Check.
func (c *SnapshotPin) Run(pass *Pass) {
	pkg := pass.Pkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !snapshotScanEntries[sel.Sel.Name] {
					return true
				}
				// Only genuine method calls: a package-qualified function or
				// a func-valued field named Scan is a different animal.
				if s, ok := pkg.Info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
					return true
				}
				named := namedOf(pkg.Info.Types[sel.X].Type)
				if named == nil || named.Obj().Name() != "Heap" {
					return true
				}
				// The declaring package is the storage layer itself: raw
				// page-table access is its job.
				if named.Obj().Pkg() == pkg.Types {
					return true
				}
				pass.Reportf(sel.Sel.Pos(),
					"%s calls %s.%s on a live heap without pinning a snapshot: readers must scan an immutable view (CurrentSnapshot/AcquireSnapshot/ExecCtx.View); write-lock holders justify the live scan with //lint:ignore",
					fd.Name.Name, types.ExprString(sel.X), sel.Sel.Name)
				return true
			})
		}
	}
}
