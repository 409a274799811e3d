package lint

import (
	"go/ast"
	"go/types"
)

// This file discovers "concurrent bodies", the function literals and
// named functions that may run on another goroutine, for determinism's
// float-merge rule. Discovery is module-wide, not just at `go` statements,
// because the repo's parallelism is funneled through a worker pool: a
// literal passed to harness.parallelFor runs on a worker goroutine even
// though no `go` keyword appears at the call site. The propagation rules:
// (1) a literal in a `go` statement is concurrent; (2) a function-typed
// parameter, variable, or field mentioned inside a concurrent body is
// "hot", and every literal bound to a hot object (assignment, composite
// literal, or call argument) is concurrent — this covers worker-pool
// submissions, locally stored closures invoked from a goroutine, and
// callbacks parked in fields; (3) literals nested inside a concurrent body
// are concurrent; (4) a named function launched with `go f()` is
// concurrent.

// concurrency is the result of the discovery, computed once per Run.
type concurrency struct {
	scan      *litScan
	conc      map[*ast.FuncLit]bool
	concFuncs map[*types.Func]bool
}

func (ip *interproc) concurrency() *concurrency {
	if ip.conc == nil {
		scan := scanLiterals(ip)
		c, cf := propagateConcurrency(scan)
		ip.conc = &concurrency{scan: scan, conc: c, concFuncs: cf}
	}
	return ip.conc
}

// litScan is the module-wide scan feeding the concurrent-body fixpoint.
type litScan struct {
	// pkgOf maps each literal to its package; parent maps nested literals
	// to their innermost enclosing literal (nil = declared at function
	// level).
	pkgOf  map[*ast.FuncLit]*Package
	parent map[*ast.FuncLit]*ast.FuncLit
	// goLits are literals launched directly by a go statement.
	goLits map[*ast.FuncLit]bool
	// goFuncs are named module functions launched by a go statement.
	goFuncs map[*types.Func]bool
	// goVars are function-typed objects invoked by a go statement.
	goVars map[types.Object]bool
	// bindings maps function-typed objects to literals bound to them.
	bindings map[types.Object][]*ast.FuncLit
	// passes maps callee-parameter objects to function-typed argument
	// objects passed for them (hotness flows param -> argument).
	passes map[types.Object][]types.Object
	// mentions maps function-typed objects to the literals (or named
	// functions, via declMentions) whose bodies mention them.
	mentions     map[types.Object][]*ast.FuncLit
	declMentions map[types.Object][]*types.Func
}

// scanLiterals walks every module function once, recording function
// literals, go statements, bindings of literals to function-typed
// objects, hotness hand-offs at call sites, and mentions of function-typed
// objects inside literals.
func scanLiterals(ip *interproc) *litScan {
	s := &litScan{
		pkgOf:        make(map[*ast.FuncLit]*Package),
		parent:       make(map[*ast.FuncLit]*ast.FuncLit),
		goLits:       make(map[*ast.FuncLit]bool),
		goFuncs:      make(map[*types.Func]bool),
		goVars:       make(map[types.Object]bool),
		bindings:     make(map[types.Object][]*ast.FuncLit),
		passes:       make(map[types.Object][]types.Object),
		mentions:     make(map[types.Object][]*ast.FuncLit),
		declMentions: make(map[types.Object][]*types.Func),
	}
	// Parameter objects per module function, in declaration order, for
	// resolving call-argument bindings.
	paramObjs := make(map[*types.Func][]types.Object)
	for fn, decl := range ip.graph.decls {
		var objs []types.Object
		if decl.Type.Params != nil {
			info := ip.graph.pkgOf[fn].Info
			for _, field := range decl.Type.Params.List {
				if len(field.Names) == 0 {
					objs = append(objs, nil)
					continue
				}
				for _, name := range field.Names {
					objs = append(objs, info.Defs[name])
				}
			}
		}
		paramObjs[fn] = objs
	}

	funcObj := func(info *types.Info, e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok {
				return sel.Obj()
			}
			return info.Uses[e.Sel]
		}
		return nil
	}

	for fn, decl := range ip.graph.decls {
		pkg := ip.graph.pkgOf[fn]
		info := pkg.Info
		var walk func(n ast.Node, enclosing *ast.FuncLit)
		record := func(obj types.Object, enclosing *ast.FuncLit) {
			if obj == nil {
				return
			}
			if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
				return
			}
			if enclosing != nil {
				s.mentions[obj] = append(s.mentions[obj], enclosing)
			} else {
				s.declMentions[obj] = append(s.declMentions[obj], fn)
			}
		}
		bind := func(obj types.Object, rhs ast.Expr) {
			if obj == nil {
				return
			}
			if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
				s.bindings[obj] = append(s.bindings[obj], lit)
			}
		}
		walk = func(n ast.Node, enclosing *ast.FuncLit) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					if m != n {
						s.pkgOf[m] = pkg
						s.parent[m] = enclosing
						walk(m.Body, m)
						return false
					}
				case *ast.GoStmt:
					switch fun := ast.Unparen(m.Call.Fun).(type) {
					case *ast.FuncLit:
						s.goLits[fun] = true
					default:
						if obj := funcObj(info, m.Call.Fun); obj != nil {
							if callee, ok := obj.(*types.Func); ok {
								if _, inModule := ip.graph.decls[callee]; inModule {
									s.goFuncs[callee] = true
								}
							} else {
								s.goVars[obj] = true
							}
						}
					}
				case *ast.Ident:
					if obj := info.Uses[m]; obj != nil {
						record(obj, enclosing)
					}
				case *ast.AssignStmt:
					for i, lhs := range m.Lhs {
						if i >= len(m.Rhs) {
							break
						}
						bind(funcObj(info, lhs), m.Rhs[i])
					}
				case *ast.ValueSpec:
					for i, name := range m.Names {
						if i >= len(m.Values) {
							break
						}
						bind(info.Defs[name], m.Values[i])
					}
				case *ast.KeyValueExpr:
					if key, ok := m.Key.(*ast.Ident); ok {
						bind(info.Uses[key], m.Value)
					}
				case *ast.CallExpr:
					callee, _ := calleeObject(info, m).(*types.Func)
					params := paramObjs[callee]
					if params == nil {
						return true
					}
					for i, arg := range m.Args {
						if i >= len(params) || params[i] == nil {
							continue
						}
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							s.bindings[params[i]] = append(s.bindings[params[i]], lit)
						} else if obj := funcObj(info, arg); obj != nil {
							s.passes[params[i]] = append(s.passes[params[i]], obj)
						}
					}
				}
				return true
			})
		}
		walk(decl.Body, nil)
	}
	return s
}

// propagateConcurrency runs the hot-object/concurrent-literal fixpoint
// described at the top of this file.
func propagateConcurrency(s *litScan) (map[*ast.FuncLit]bool, map[*types.Func]bool) {
	conc := make(map[*ast.FuncLit]bool, len(s.goLits))
	hot := make(map[types.Object]bool, len(s.goVars))
	for lit := range s.goLits {
		conc[lit] = true
	}
	for obj := range s.goVars {
		hot[obj] = true
	}
	concFuncs := make(map[*types.Func]bool, len(s.goFuncs))
	for fn := range s.goFuncs {
		concFuncs[fn] = true
	}
	for round := 0; round < 10; round++ {
		changed := false
		mark := func(lit *ast.FuncLit) {
			if !conc[lit] {
				conc[lit] = true
				changed = true
			}
		}
		// Nested literals of concurrent literals run on the same goroutine.
		for lit, parent := range s.parent {
			if parent != nil && conc[parent] {
				mark(lit)
			}
		}
		// A function-typed object mentioned in a concurrent context is hot.
		for obj, lits := range s.mentions {
			if hot[obj] {
				continue
			}
			for _, lit := range lits {
				if conc[lit] {
					hot[obj] = true
					changed = true
					break
				}
			}
		}
		for obj, fns := range s.declMentions {
			if hot[obj] {
				continue
			}
			for _, fn := range fns {
				if concFuncs[fn] {
					hot[obj] = true
					changed = true
					break
				}
			}
		}
		// Literals bound to hot objects are concurrent; function-typed
		// arguments passed into hot parameters become hot.
		for obj, lits := range s.bindings {
			if !hot[obj] {
				continue
			}
			for _, lit := range lits {
				mark(lit)
			}
		}
		for param, args := range s.passes {
			if !hot[param] {
				continue
			}
			for _, arg := range args {
				if fn, ok := arg.(*types.Func); ok {
					if !concFuncs[fn] {
						concFuncs[fn] = true
						changed = true
					}
					continue
				}
				if !hot[arg] {
					hot[arg] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return conc, concFuncs
}

// writeRoot resolves an assignment target to its root identifier, also
// reporting whether the write lands in a slice or array element.
func writeRoot(info *types.Info, e ast.Expr) (*ast.Ident, bool) {
	element := false
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t, element
		case *ast.IndexExpr:
			if tv, ok := info.Types[t.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array:
					element = true
				}
			}
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil, false
		}
	}
}
