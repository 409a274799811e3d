package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline is the second concurrency gate for the simulator's
// concurrent code: every sync.Mutex/RWMutex Lock must be released on all paths
// (defer-unlock preferred — an early return between Lock and a
// non-deferred Unlock leaks the lock), and no lock may be held across a
// channel send/receive, select, or blocking call (WaitGroup.Wait,
// Cond.Wait, time.Sleep) — holding a shard's lock while parking on a
// channel is how event-loop deadlocks are born.
//
// The model is lexical: Lock..Unlock pairs are matched innermost-first by
// mutex expression within one function body, and a deferred Unlock extends
// the interval to the end of the body. Branch-sensitive release patterns
// (unlock in one arm, fall through in another) are out of model — they are
// also exactly the patterns this discipline asks refactors to avoid.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "locks are released on all paths (defer preferred) and never held across blocking operations",
	Run:  runLockDiscipline,
}

// A lockInterval is one Lock..release span inside one function body.
type lockInterval struct {
	mu       string // render of the mutex expression ("r.mu")
	read     bool   // RLock/RUnlock pair
	lockPos  token.Pos
	endPos   token.Pos // matching Unlock, or body end when deferred/leaked
	deferred bool
	closed   bool // a matching release was seen (deferred or direct)
}

// contains reports whether pos falls strictly inside the held span.
func (iv *lockInterval) contains(pos token.Pos) bool {
	return pos > iv.lockPos && pos < iv.endPos
}

// mutexMethodCall classifies call as a Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex and returns the mutex expression's render.
func mutexMethodCall(info *types.Info, call *ast.CallExpr) (mu string, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	selection, isSel := info.Selections[sel]
	if !isSel {
		return "", "", false
	}
	if !isSyncType(selection.Recv(), "Mutex", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// isSyncType reports whether t (or *t) is one of the named types from
// package sync.
func isSyncType(t types.Type, names ...string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if n.Obj().Name() == name {
			return true
		}
	}
	return false
}

// funcBodies yields every function-like body in a file — each FuncDecl body
// and each FuncLit body — exactly once, with nested literals excluded from
// their enclosing body's walk (each body has its own lock scope: a
// goroutine launched while the parent holds a lock does not hold it).
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt, where string)) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		visit(fn.Body, fn.Name.Name)
		walkBody(fn.Body, fn.Name.Name, visit)
	}
}

func walkBody(body *ast.BlockStmt, where string, visit func(*ast.BlockStmt, string)) {
	inspectSkipFuncLits(body, func(n ast.Node) {
		if lit, ok := n.(*ast.FuncLit); ok {
			name := "func literal in " + where
			visit(lit.Body, name)
			walkBody(lit.Body, where, visit)
		}
	})
}

// inspectSkipFuncLits walks body's own statements, invoking f for every
// node including FuncLit nodes themselves but not their contents.
func inspectSkipFuncLits(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			f(lit)
			return false
		}
		f(n)
		return true
	})
}

// lockIntervals computes the Lock..release spans of one body (nested
// literals excluded). Unmatched Locks yield open intervals ending at the
// body's end with closed=false.
func lockIntervals(info *types.Info, body *ast.BlockStmt) []*lockInterval {
	var intervals []*lockInterval
	open := func(mu string, read bool) *lockInterval {
		for i := len(intervals) - 1; i >= 0; i-- {
			iv := intervals[i]
			if !iv.closed && iv.mu == mu && iv.read == read {
				return iv
			}
		}
		return nil
	}
	inspectSkipFuncLits(body, func(n ast.Node) {
		var call *ast.CallExpr
		deferred := false
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = n.Call
			deferred = true
		default:
			return
		}
		if call == nil {
			return
		}
		mu, method, ok := mutexMethodCall(info, call)
		if !ok {
			return
		}
		switch method {
		case "Lock", "RLock":
			if !deferred { // "defer mu.Lock()" is nonsense; ignore
				intervals = append(intervals, &lockInterval{
					mu:      mu,
					read:    method == "RLock",
					lockPos: call.Pos(),
					endPos:  body.End(),
				})
			}
		case "Unlock", "RUnlock":
			iv := open(mu, method == "RUnlock")
			if iv == nil {
				return
			}
			iv.closed = true
			if deferred {
				iv.deferred = true
				iv.endPos = body.End()
			} else {
				iv.endPos = call.Pos()
			}
		}
	})
	return intervals
}

// blockingOp classifies a node as an operation that can park the
// goroutine: channel send/receive, select, WaitGroup/Cond Wait, or
// time.Sleep.
func blockingOp(info *types.Info, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.SelectStmt:
		return "select", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if selection, ok := info.Selections[sel]; ok {
				if sel.Sel.Name == "Wait" && isSyncType(selection.Recv(), "WaitGroup", "Cond") {
					return "sync." + namedTypeName(selection.Recv()) + ".Wait", true
				}
			} else if fn, pkg := qualifiedCallee(info, n); pkg == "time" && fn == "Sleep" {
				return "time.Sleep", true
			}
		}
	}
	return "", false
}

func runLockDiscipline(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt, where string) {
			intervals := lockIntervals(info, body)
			if len(intervals) == 0 {
				return
			}
			for _, iv := range intervals {
				if !iv.closed {
					pass.Reportf(iv.lockPos,
						"%s.Lock is not released on every path through %s; add a matching Unlock (prefer `defer %s.Unlock()` immediately after locking)",
						iv.mu, where, iv.mu)
				}
			}
			inspectSkipFuncLits(body, func(n ast.Node) {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					for _, iv := range intervals {
						if iv.closed && !iv.deferred && iv.contains(ret.Pos()) {
							pass.Reportf(ret.Pos(),
								"return between %s.Lock and its Unlock leaks the lock on this path; use `defer %s.Unlock()` so every exit releases it",
								iv.mu, iv.mu)
						}
					}
					return
				}
				if op, ok := blockingOp(info, n); ok {
					for _, iv := range intervals {
						if iv.contains(n.Pos()) {
							pass.Reportf(n.Pos(),
								"%s while holding %s; blocking with a lock held stalls every other goroutine contending for it (and can deadlock the event loop)",
								op, iv.mu)
							break
						}
					}
				}
			})
		})
	}
}
