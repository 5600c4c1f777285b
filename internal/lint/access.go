package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Access classification: resolving selector expressions to the struct
// field they touch, with the access mode (read, write, address-taken,
// atomic) attached. The dataflow checks consume these instead of raw AST
// selectors, so "the same field" means the same (package, type, field)
// triple across every file of the module — embedded promotions, pointer
// receivers, and aliasing through locals all collapse onto one FieldRef
// via go/types.

// FieldRef names a struct field globally.
type FieldRef struct {
	Pkg   string // declaring package path
	Type  string // receiver named type
	Field string
}

func (r FieldRef) String() string { return r.Type + "." + r.Field }

// AccessMode classifies how a selector touches its field.
type AccessMode int

const (
	// AccessRead is a plain value read.
	AccessRead AccessMode = iota
	// AccessWrite is a plain store: assignment LHS, ++/--, or a delete()
	// on the field's map.
	AccessWrite
	// AccessAddr takes the field's address outside any sync/atomic
	// operand position (the address may then be written through).
	AccessAddr
	// AccessAtomic goes through sync/atomic: a method call on an
	// atomic-typed field, or the field's address passed to an
	// atomic.Load/Store/Add/Swap/CompareAndSwap function.
	AccessAtomic
)

func (m AccessMode) String() string {
	switch m {
	case AccessWrite:
		return "write"
	case AccessAddr:
		return "address-taken"
	case AccessAtomic:
		return "atomic"
	}
	return "read"
}

// FieldAccess is one classified field touch.
type FieldAccess struct {
	Ref  FieldRef
	Mode AccessMode
	Pos  token.Pos
	Fn   string // enclosing function, for messages
	// AtomicType is true when the field's own type is declared in
	// sync/atomic (atomic.Uint64, atomic.Pointer[T], …).
	AtomicType bool
}

// fieldRefOf resolves sel to the field it selects, when sel is a direct
// struct-field selection on a named type. A field promoted through
// embedding resolves to the struct that declares it, so `c.Dirty` names
// the same FieldRef whether c is the declaring struct or one embedding it.
func fieldRefOf(pkg *Package, sel *ast.SelectorExpr) (FieldRef, types.Type, bool) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return FieldRef{}, nil, false
	}
	owner := s.Recv()
	path := s.Index()
	for _, i := range path[:len(path)-1] {
		named := namedOf(owner)
		if named == nil {
			return FieldRef{}, nil, false
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return FieldRef{}, nil, false
		}
		owner = st.Field(i).Type()
	}
	named := namedOf(owner)
	if named == nil || named.Obj().Pkg() == nil {
		return FieldRef{}, nil, false
	}
	return FieldRef{
		Pkg:   named.Obj().Pkg().Path(),
		Type:  named.Obj().Name(),
		Field: s.Obj().Name(),
	}, s.Obj().Type(), true
}

// isAtomicDeclared reports whether t is a type declared in sync/atomic.
func isAtomicDeclared(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	p := named.Obj().Pkg()
	return p != nil && p.Path() == "sync/atomic"
}

// atomicFuncCall reports whether call invokes a sync/atomic package
// function (atomic.AddInt64, atomic.LoadPointer, …).
func atomicFuncCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// classifyAccesses walks one function body and yields every classified
// struct-field access. Function literals ARE descended into: a closure's
// plain read races exactly like a method's. The classification is a
// two-pass walk: pass one marks the selectors consumed by an atomic
// operation (method-call receivers on atomic-typed fields, &field operands
// of atomic.* calls) and the write roots of assignments; pass two emits
// one FieldAccess per remaining field selector.
func classifyAccesses(pkg *Package, fnName string, body ast.Node, emit func(FieldAccess)) {
	atomicSel := make(map[*ast.SelectorExpr]bool)
	writeRoot := make(map[ast.Expr]bool)
	addrOf := make(map[*ast.SelectorExpr]bool)

	// markWrite records the selector root of one assignment target,
	// unwrapping parens/indexing. Stepping through a pointer dereference
	// mutates the pointee, not the field, so the walk stops there (the
	// field itself is then merely read).
	var markWrite func(e ast.Expr)
	markWrite = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			markWrite(x.X)
		case *ast.IndexExpr:
			markWrite(x.X)
		case *ast.SelectorExpr:
			writeRoot[x] = true
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if sel, ok := x.X.(*ast.SelectorExpr); ok {
					addrOf[sel] = true
				}
			}
		case *ast.CallExpr:
			// delete(x.f, k) mutates the field's map.
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
				markWrite(x.Args[0])
			}
			// x.f.Load() — the receiver selection x.f is an atomic use when
			// f's type lives in sync/atomic.
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if inner, ok := sel.X.(*ast.SelectorExpr); ok {
					if _, t, ok := fieldRefOf(pkg, inner); ok && isAtomicDeclared(t) {
						atomicSel[inner] = true
					}
				}
			}
			// atomic.AddInt64(&x.f, 1) — the &x.f operand is an atomic use
			// of a plain-typed field.
			if atomicFuncCall(pkg, x) {
				for _, a := range x.Args {
					if ue, ok := a.(*ast.UnaryExpr); ok && ue.Op == token.AND {
						if sel, ok := ue.X.(*ast.SelectorExpr); ok {
							atomicSel[sel] = true
						}
					}
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ref, t, ok := fieldRefOf(pkg, sel)
		if !ok {
			return true
		}
		acc := FieldAccess{Ref: ref, Pos: sel.Sel.Pos(), Fn: fnName, AtomicType: isAtomicDeclared(t)}
		switch {
		case atomicSel[sel]:
			acc.Mode = AccessAtomic
		case writeRoot[sel]:
			acc.Mode = AccessWrite
		case addrOf[sel]:
			acc.Mode = AccessAddr
		default:
			acc.Mode = AccessRead
		}
		emit(acc)
		return true
	})
}
