package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FrozenMut flags writes that reach state frozen at construction. A type
// opts in with a directive on its declaration:
//
//	//sdclint:frozen [ctors=Name1,Name2] [reason]
//
// Construction is the only mutating phase: the construction set of a frozen
// type is every same-package function whose results include the type (the
// constructor convention), any functions named in ctors=, and everything
// those functions call transitively within the package. Outside that set
// the analyzer reports:
//
//   - direct writes into the frozen value's referenced state (field
//     assignments through a pointer, element writes into its slices/maps,
//     however deeply nested the access path);
//   - writes through aliases: a local assigned from a frozen value's field
//     or from an accessor method that returns receiver-reachable memory
//     (the shared-index contract of engine.Ctx and testkit.Suite);
//   - mutation via callees: passing the frozen value, or an alias of its
//     state, to a function whose interprocedural summary says it writes
//     that parameter (sort.Slice on a shared index, a method that advances
//     a held *simrand.Source, a helper that re-populates a map).
//
// The repo's frozen types are engine.Ctx, testkit.Suite and its compiled
// Testcase indexes, fleet's per-CPU detection plans and the fleet's
// defect.FleetGenerator — the shared state every shard of a parallel run
// reads lock-free. A post-freeze write there
// is this testbed's own silent data corruption: results stop being a pure
// function of the seed, and only under contention.
var FrozenMut = &Analyzer{
	Name: "frozenmut",
	Doc:  "flag writes reaching //sdclint:frozen state after construction, including via aliases and callees",
	Run:  runFrozenMut,
}

// frozenType is one //sdclint:frozen declaration.
type frozenType struct {
	tn  *types.TypeName
	pkg *Package
}

// collectFrozen scans type declarations for //sdclint:frozen directives and
// computes the per-package construction sets into m.ctors.
func (m *Module) collectFrozen() {
	m.ctors = make(map[*types.Func]bool)
	extraCtors := make(map[*types.Package]map[string]bool)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					names, ok := frozenDirective(gd.Doc, ts.Doc, ts.Comment)
					if !ok {
						continue
					}
					tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					m.frozen[tn] = &frozenType{tn: tn, pkg: pkg}
					if len(names) > 0 {
						set := extraCtors[tn.Pkg()]
						if set == nil {
							set = make(map[string]bool)
							extraCtors[tn.Pkg()] = set
						}
						for _, n := range names {
							set[n] = true
						}
					}
				}
			}
		}
	}
	if len(m.frozen) == 0 {
		return
	}

	// Seed the construction sets: same-package functions returning the
	// frozen type (by convention, its constructors) plus ctors= extras.
	var worklist []*types.Func
	for _, node := range m.sortedFuncs() {
		fn := node.Fn
		frozenPkgFunc := false
		returnsFrozen := false
		for tn := range m.frozen {
			if fn.Pkg() != tn.Pkg() {
				continue
			}
			frozenPkgFunc = true
			if resultsInclude(node.Decl, node.Pkg.Info, tn) {
				returnsFrozen = true
			}
		}
		if !frozenPkgFunc {
			continue
		}
		if returnsFrozen || extraCtors[fn.Pkg()][fn.Name()] {
			m.ctors[fn] = true
			worklist = append(worklist, fn)
		}
	}
	// Close over same-package callees: helpers invoked during construction
	// (index builders, freeze methods) are part of the construction phase.
	for len(worklist) > 0 {
		fn := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		node := m.Funcs[fn]
		if node == nil {
			continue
		}
		for _, cs := range node.calls {
			for _, t := range cs.targets {
				if t.Pkg() == fn.Pkg() && m.Funcs[t] != nil && !m.ctors[t] {
					m.ctors[t] = true
					worklist = append(worklist, t)
				}
			}
		}
	}
}

// frozenDirective extracts an //sdclint:frozen directive from the doc
// groups, returning any ctors= names.
func frozenDirective(groups ...*ast.CommentGroup) (ctors []string, ok bool) {
	const directive = "//sdclint:frozen"
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, directive)
			if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			for _, field := range strings.Fields(rest) {
				if list, isCtors := strings.CutPrefix(field, "ctors="); isCtors {
					for _, n := range strings.Split(list, ",") {
						if n = strings.TrimSpace(n); n != "" {
							ctors = append(ctors, n)
						}
					}
				}
			}
			return ctors, true
		}
	}
	return nil, false
}

// resultsInclude reports whether the function's results mention the type
// (directly, behind a pointer, or as a slice/array element).
func resultsInclude(fd *ast.FuncDecl, info *types.Info, tn *types.TypeName) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		t := info.TypeOf(field.Type)
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == tn {
			return true
		}
	}
	return false
}

// frozenTypeName returns the frozen TypeName behind t (unwrapping one level
// of pointer), or nil.
func (m *Module) frozenTypeName(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := m.frozen[named.Obj()]; ok {
		return named.Obj()
	}
	return nil
}

// frozenWriteTarget walks an lvalue from the outside in and returns the
// frozen type whose referenced state the write lands in, if any: a write
// escapes into frozen state when an indirection step (pointer deref, slice
// or map element, field through a pointer) stands between the write and a
// frozen-typed prefix.
func (m *Module) frozenWriteTarget(lv ast.Expr, info *types.Info) *types.TypeName {
	escaped := false
	e := lv
	for e != nil {
		e = unparen(e)
		if escaped {
			if tn := m.frozenTypeName(info.TypeOf(e)); tn != nil {
				return tn
			}
		}
		switch x := e.(type) {
		case *ast.StarExpr:
			escaped = true
			e = x.X
		case *ast.IndexExpr:
			switch info.TypeOf(x.X).Underlying().(type) {
			case *types.Slice, *types.Map, *types.Pointer:
				escaped = true
			}
			e = x.X
		case *ast.SelectorExpr:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					escaped = true
				}
			}
			e = x.X
		default:
			e = nil
		}
	}
	return nil
}

// frozenAliasSource reports whether the expression's value aliases frozen
// state: it has a frozen-typed prefix reached through field/element access,
// or through an accessor method whose summary says it returns
// receiver-reachable memory.
func (m *Module) frozenAliasSource(e ast.Expr, info *types.Info) *types.TypeName {
	for e != nil {
		e = unparen(e)
		if tn := m.frozenTypeName(info.TypeOf(e)); tn != nil {
			return tn
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
			} else {
				e = nil
			}
		case *ast.CallExpr:
			// Only step through accessors that hand out shared internals.
			sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return nil
			}
			sum := m.summaryOf(s.Obj().(*types.Func))
			if sum == nil || !sum.ReturnsRecvAlias {
				return nil
			}
			e = sel.X
		default:
			e = nil
		}
	}
	return nil
}

func runFrozenMut(pass *Pass) {
	m := pass.Mod
	if len(m.frozen) == 0 {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			m.checkFrozenFunc(pass, fn, fd)
		}
	}
}

// checkFrozenFunc analyzes one function (literals included, attributed to
// it) for post-construction mutation of frozen state.
func (m *Module) checkFrozenFunc(pass *Pass, fn *types.Func, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// exempt reports whether this function may mutate tn: it is part of
	// the construction set of tn's own package.
	exempt := func(tn *types.TypeName) bool {
		return fn != nil && m.ctors[fn] && fn.Pkg() == tn.Pkg()
	}

	// Aliases of frozen state held in locals: ids := ctx.KnownErrs(id),
	// tcs := c.Suite.Testcases, entries := plan.entries. Two passes so an
	// alias-of-alias assignment above its source still registers.
	aliases := make(map[types.Object]*types.TypeName)
	aliasOf := func(e ast.Expr) *types.TypeName {
		if v := refRootVar(e, info); v != nil {
			if tn, ok := aliases[v]; ok {
				return tn
			}
		}
		if !isRefType(info.TypeOf(e)) {
			return nil
		}
		return m.frozenAliasSource(e, info)
	}
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			var src *types.TypeName
			for _, rhs := range st.Rhs {
				if tn := aliasOf(rhs); tn != nil {
					src = tn
				}
			}
			if src == nil {
				return true
			}
			for _, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil && isRefType(obj.Type()) {
					// A frozen-typed local is caught by the type-based
					// rules directly; aliases cover everything else.
					if m.frozenTypeName(obj.Type()) == nil {
						aliases[obj] = src
					}
				}
			}
			return true
		})
	}

	report := func(pos token.Pos, tn *types.TypeName, format string, args ...any) {
		if exempt(tn) {
			return
		}
		msg := fmt.Sprintf(format, args...)
		pass.Reportf(pos, "%s; %s.%s is frozen after construction and shared lock-free across shards — rebuild instead of mutating, or justify with //sdclint:ignore frozenmut",
			msg, tn.Pkg().Name(), tn.Name())
	}

	// Direct writes and writes through aliases.
	forEachWrite(fd.Body, func(lv ast.Expr) {
		if tn := m.frozenWriteTarget(lv, info); tn != nil {
			report(lv.Pos(), tn, "write into frozen %s state", tn.Name())
			return
		}
		if root := rootIdent(lv, info); root != nil && writeEscapes(lv, info) {
			if obj := info.ObjectOf(root); obj != nil {
				if tn, ok := aliases[obj]; ok {
					report(lv.Pos(), tn, "write through %q, which aliases frozen %s state", root.Name, tn.Name())
				}
			}
		}
	})

	// Mutation via callees: frozen state (or an alias of it) passed to a
	// function whose summary says it writes that argument.
	if node := m.Funcs[fn]; node != nil {
		for _, cs := range node.calls {
			m.forEachMutatedArg(cs, info, func(arg ast.Expr) {
				tn := m.frozenAliasSource(arg, info)
				if tn == nil {
					if v := refRootVar(arg, info); v != nil {
						tn = aliases[v]
					}
				}
				if tn == nil {
					return
				}
				report(arg.Pos(), tn, "%s may mutate frozen %s state passed as %s",
					types.ExprString(cs.call.Fun), tn.Name(), types.ExprString(arg))
			})
		}
	}
}
