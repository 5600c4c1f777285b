package lint

import (
	"go/ast"
	"go/token"
)

// CatalogView protects the immutable schema views the rewriter binds
// statements to (DESIGN.md §10, "Catalog views"). A view is a cached,
// by-value picture of a collection's columns; it stays correct only if
// every change to what it pictures also discards it. So the state a view
// copies — ColumnState's Materialized, Dirty and PhysicalName, and the
// membership of CollectionCatalog.columns — may be written only inside a
// view-invalidating mutator: a CollectionCatalog method that calls
// view.Store, and does so on every path between the write and its return.
// A write anywhere else (the analyzer flipping a flag under its own
// lock/unlock pair, as the code did before views existed) leaves the
// published view describing a catalog that no longer exists, and the
// rewriter keeps emitting statements for it until some unrelated change
// happens to invalidate.
//
// The first half is a module-wide scan over access.go's field
// classifier; the second a forward may-analysis over the mutator's CFG,
// one "written since the last invalidation" fact per write site. A
// deferred view.Store counts where it is registered, not at return, so
// the check is conservative there. Code that edits a private copy of a
// ColumnState says so with //lint:ignore sinew/catalog-view.
type CatalogView struct{}

// ID implements Check.
func (*CatalogView) ID() string { return "catalog-view" }

// Doc implements Check.
func (*CatalogView) Doc() string {
	return "rewriter-visible catalog state is written only by CollectionCatalog mutators that invalidate the schema view on every path"
}

// PackageParallel implements PkgParallel: the analysis is per-function.
func (*CatalogView) PackageParallel() {}

const catalogType = "CollectionCatalog"

// viewGuarded reports whether a view copies the field, so that writing it
// obliges the writer to invalidate.
func viewGuarded(ref FieldRef) bool {
	switch ref.Type {
	case "ColumnState", "ColumnInfo":
		return ref.Field == "Materialized" || ref.Field == "Dirty" || ref.Field == "PhysicalName"
	case catalogType:
		return ref.Field == "columns"
	}
	return false
}

// Run implements Check.
func (c *CatalogView) Run(pass *Pass) {
	pkg := pass.Pkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var writes []FieldAccess
			classifyAccesses(pkg, fd.Name.Name, fd.Body, func(a FieldAccess) {
				if viewGuarded(a.Ref) && (a.Mode == AccessWrite || a.Mode == AccessAddr) {
					writes = append(writes, a)
				}
			})
			if len(writes) == 0 {
				continue
			}
			recv, _ := receiverNamed(pkg, fd)
			if recv == nil || recv.Obj().Name() != catalogType || !invalidatesView(pkg, fd.Body) {
				for _, w := range writes {
					pass.Reportf(w.Pos,
						"%s %s %s outside a view-invalidating %s mutator: the published schema view would keep the old value",
						w.Fn, accessVerb(w.Mode), w.Ref, catalogType)
				}
				continue
			}
			c.checkMutator(pass, pkg, fd, writes)
		}
	}
}

// invalidatesView reports whether n contains a call of the Store method
// on CollectionCatalog's view field.
func invalidatesView(pkg *Package, n ast.Node) bool {
	found := false
	callsIn(n, "Store", func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		field, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if ref, _, ok := fieldRefOf(pkg, field); ok && ref.Type == catalogType && ref.Field == "view" {
			found = true
		}
	})
	return found
}

// checkMutator verifies that no path through a mutator returns with a
// guarded write newer than its last view invalidation.
func (c *CatalogView) checkMutator(pass *Pass, pkg *Package, fd *ast.FuncDecl, writes []FieldAccess) {
	bitAt := make(map[token.Pos]int, len(writes))
	for i, w := range writes {
		bitAt[w.Pos] = i
	}
	site := make(map[ast.Node]int, len(writes)) // writing selector -> fact bit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if bit, ok := bitAt[sel.Sel.Pos()]; ok {
				site[sel] = bit
			}
		}
		return true
	})
	step := func(n ast.Node, facts Facts) {
		inspectNode(n, func(m ast.Node) bool {
			if bit, ok := site[m]; ok {
				facts.Set(bit)
			}
			return true
		})
		if invalidatesView(pkg, n) {
			for i := range writes {
				facts.Clear(i)
			}
		}
	}
	g := BuildCFG(fd.Body)
	sol := SolveForward(g, MeetMay, len(writes), NewFacts(len(writes), false), func(b *Block, in Facts) Facts {
		for _, n := range b.Nodes {
			step(n, in)
		}
		return in
	})
	stale := NewFacts(len(writes), false)
	for _, p := range g.Exit.Preds {
		out := sol[p].Clone()
		for _, n := range p.Nodes {
			step(n, out)
		}
		stale.UnionWith(out)
	}
	for i, w := range writes {
		if stale.Has(i) {
			pass.Reportf(w.Pos,
				"%s %s %s but can return without invalidating the schema view afterwards: call view.Store(nil) on every path from the write",
				w.Fn, accessVerb(w.Mode), w.Ref)
		}
	}
}
