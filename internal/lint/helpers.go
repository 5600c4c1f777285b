package lint

import (
	"go/ast"
	"go/types"
)

// hasCloseMethod reports whether t (or *t) has a Close method taking no
// arguments — the project-wide convention for resource release (exec
// iterators, storage.HeapChunkIter, batch sources).
func hasCloseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
		fn, ok := obj.(*types.Func)
		return ok && noArgMethod(fn)
	}
	// Methods with pointer receivers are in *t's method set.
	pt := t
	if _, ok := t.(*types.Pointer); !ok {
		pt = types.NewPointer(t)
	}
	obj, _, _ := types.LookupFieldOrMethod(pt, true, nil, "Close")
	fn, ok := obj.(*types.Func)
	return ok && noArgMethod(fn)
}

func noArgMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0
}

// closableElem unwraps slices and arrays so []BatchIterator fields count as
// closable; it returns the element type to test and whether the field was
// a collection.
func closableElem(t types.Type) (types.Type, bool) {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem(), true
	case *types.Array:
		return u.Elem(), true
	}
	return t, false
}

// isSyncType reports whether t is declared in sync or sync/atomic —
// such fields are synchronization primitives, not guarded state.
func isSyncType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
}

// namedOf strips pointers and returns the named type, if any.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// receiverNamed resolves a method declaration's receiver to its named type
// and receiver identifier (nil ident for anonymous receivers).
func receiverNamed(pkg *Package, fd *ast.FuncDecl) (*types.Named, *ast.Ident) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil, nil
	}
	field := fd.Recv.List[0]
	tv, ok := pkg.Info.Types[field.Type]
	if !ok {
		return nil, nil
	}
	named := namedOf(tv.Type)
	if named == nil {
		return nil, nil
	}
	if len(field.Names) > 0 {
		return named, field.Names[0]
	}
	return named, nil
}

// isReceiver reports whether e is a use of the given receiver identifier,
// unwrapping parens and pointer derefs.
func isReceiver(pkg *Package, e ast.Expr, recv *ast.Ident) bool {
	if recv == nil {
		return false
	}
	switch x := e.(type) {
	case *ast.Ident:
		ro := pkg.Info.Defs[recv]
		uo := pkg.Info.Uses[x]
		return ro != nil && ro == uo
	case *ast.ParenExpr:
		return isReceiver(pkg, x.X, recv)
	case *ast.StarExpr:
		return isReceiver(pkg, x.X, recv)
	}
	return false
}

// fieldOfReceiver returns the field name when e is recv.f (or a deeper
// selector chain rooted at recv.f, in which case the root field is
// returned), and a FieldVal selection.
func fieldOfReceiver(pkg *Package, e ast.Expr, recv *ast.Ident) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if isReceiver(pkg, sel.X, recv) {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			return sel.Sel.Name, true
		}
		return "", false
	}
	// Deeper chain: recv.f.g... — attribute to the root field f.
	return fieldOfReceiver(pkg, sel.X, recv)
}

// methodsOf collects the package's method declarations for each named type,
// keyed by type name.
func methodsOf(pkg *Package) map[string][]*ast.FuncDecl {
	out := make(map[string][]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			named, _ := receiverNamed(pkg, fd)
			if named == nil {
				continue
			}
			name := named.Obj().Name()
			out[name] = append(out[name], fd)
		}
	}
	return out
}

// structDecls yields each named struct type declared in the package along
// with its AST node.
func structDecls(pkg *Package, fn func(name *ast.Ident, st *ast.StructType)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				fn(ts.Name, st)
			}
		}
	}
}
