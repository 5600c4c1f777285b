package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// UnsafeConfined keeps the compact value representation honest (DESIGN.md
// §5, "Value representation"). types.Datum is a tagged union whose pointer
// word and payload word mean different things per tag; the package that
// declares it is the only place allowed to reinterpret memory, and its
// constructors are the only way to pair a tag with a payload. Two things
// are therefore findings anywhere else in the module:
//
//   - importing "unsafe" — one audited package of pointer arithmetic, not a
//     technique the engine reaches for;
//   - a types.Datum{…} composite literal that sets fields — outside the
//     package it can only name Typ, Null and I, so it either builds a value
//     NewInt/NewNull already build or a tag whose payload words were never
//     filled in (Typ: Text with a nil pointer and a stale length). The empty
//     literal types.Datum{} is the untyped NULL and stays legal.
type UnsafeConfined struct{}

// ID implements Check.
func (*UnsafeConfined) ID() string { return "unsafe-confined" }

// Doc implements Check.
func (*UnsafeConfined) Doc() string {
	return `"unsafe" and types.Datum{…} literals with fields appear only in the package that declares Datum`
}

// PackageParallel implements PkgParallel: each file is judged on its own.
func (*UnsafeConfined) PackageParallel() {}

// valuePackage reports whether path is the module's value-system package,
// the one place the representation may be touched.
func valuePackage(prog *Program, path string) bool {
	return prog.IsModulePath(path) && strings.HasSuffix(path, "/types")
}

// Run implements Check.
func (*UnsafeConfined) Run(pass *Pass) {
	pkg := pass.Pkg
	if valuePackage(pass.Prog, pkg.Path) {
		return
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "unsafe" {
				pass.Reportf(imp.Pos(), `package %s imports "unsafe": memory reinterpretation is confined to the types package (build values with its constructors, read them with its accessors)`, pkg.Types.Name())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			tv, ok := pkg.Info.Types[lit]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok || named.Obj().Name() != "Datum" || named.Obj().Pkg() == nil || !valuePackage(pass.Prog, named.Obj().Pkg().Path()) {
				return true
			}
			pass.Reportf(lit.Pos(), "types.Datum literal sets fields outside the types package: a tag paired by hand with a payload can disagree with it; use the New* constructors (types.Datum{} stays the untyped NULL)")
			return true
		})
	}
}
