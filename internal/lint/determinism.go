package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism is the reproducibility gate: two runs of the simulator with
// the same configuration must produce byte-identical artifacts (the
// campaign fingerprints in internal/harness pin this end to end; this
// analyzer pins the code patterns that break it). Two rules:
//
//  1. Map iteration order is randomized per run, so a `range` over a map
//     must not reach an ordered sink. Flagged inside a map-range body:
//     calls that emit in iteration order (fmt print/Fprint variants,
//     Write*/Record/Instant-style writers),
//     and appends to a slice variable declared outside the loop
//     — unless the slice is passed to a sort call after the loop (the
//     collect-then-sort idiom). Appends into indexed or field targets are
//     exempt (per-key state, not an ordered rendering), and so are pure
//     map/set writes, which are order-independent.
//
//  2. Wall-clock and process-global randomness have no place in internal/*
//     simulation or crypto packages: time.Now/Since and the package-level
//     math/rand draw functions (Intn, Float64, ...) are flagged there.
//     Explicitly seeded generators (rand.New(rand.NewSource(seed))) are
//     the sanctioned source and pass; the timing-harness commands under
//     cmd/ measure real wall time and are out of scope by path.
//
// Lexical soundness caveat: rule 1 sees appends and sink calls written
// directly in the range body; an append hidden behind a locally bound
// closure called from the loop is not attributed to the loop. Scheduling
// order is not judged here: campaign workers write only per-index slots,
// and the harness's serial-versus-parallel test compares every campaign's
// output across worker counts.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no map-order or wall-clock nondeterminism in simulation outputs",
	Run:  runDeterminism,
}

// orderedSinkNames are method/function names treated as ordered emission
// when called inside a map-range body: stream writers and the trace/
// flight-recorder event emitters. Metric Inc/Add/Observe are deliberately
// absent — commutative updates are order-independent.
var orderedSinkNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Record": true, "Instant": true, "Emit": true,
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			checkMapRanges(pass, info, body)
		})
	}
	checkWallClock(pass)
}

// checkMapRanges applies rule 1 to one function body (nested literals get
// their own visit via funcBodies, so loops and their sorts are matched
// within a single lexical scope).
func checkMapRanges(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Collect sort calls once: any call into package sort, with the set of
	// objects mentioned in its arguments.
	type sortCall struct {
		pos  token.Pos
		objs map[types.Object]bool
	}
	var sorts []sortCall
	inspectSkipFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee, _ := calleeObject(info, call).(*types.Func)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sort" {
			return
		}
		sc := sortCall{pos: call.Pos(), objs: make(map[types.Object]bool)}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						sc.objs[obj] = true
					}
				}
				return true
			})
		}
		sorts = append(sorts, sc)
	})
	sortedAfter := func(obj types.Object, after token.Pos) bool {
		for _, sc := range sorts {
			if sc.pos > after && sc.objs[obj] {
				return true
			}
		}
		return false
	}

	inspectSkipFuncLits(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		inspectSkipFuncLits(rng.Body, func(m ast.Node) {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return
			}
			if desc, ok := orderedSinkCall(info, call); ok {
				pass.Reportf(call.Pos(),
					"%s inside a map range emits in randomized iteration order; iterate a sorted key slice instead", desc)
				return
			}
			// dst = append(dst, ...) growing an outer slice in map order.
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return
			}
			if len(call.Args) == 0 {
				return
			}
			target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return // indexed/field targets hold per-key state, exempt
			}
			obj := info.Uses[target]
			if obj == nil {
				return
			}
			if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
				return // loop-local scratch, rebuilt per iteration
			}
			if sortedAfter(obj, rng.End()) {
				return // collect-then-sort idiom
			}
			pass.Reportf(call.Pos(),
				"append to %s inside a map range records randomized iteration order and %s is never sorted afterwards; sort it (or iterate sorted keys) before it is rendered",
				obj.Name(), obj.Name())
		})
	})
}

// orderedSinkCall reports calls that emit output in call order.
func orderedSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	callee, _ := calleeObject(info, call).(*types.Func)
	if callee == nil {
		return "", false
	}
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch callee.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + callee.Name(), true
		}
		// Sprint*/Errorf construct values without emitting; whether their
		// results are rendered in map order is the consumer's concern and
		// the append rule below covers the recording side.
		return "", false
	}
	if orderedSinkNames[callee.Name()] {
		return callee.Name() + " call", true
	}
	return "", false
}

// checkWallClock applies rule 2: time.Now/Since and package-level
// math/rand draws in internal/* packages.
func checkWallClock(pass *Pass) {
	if !internalPath(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, _ := calleeObject(info, call).(*types.Func)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			switch path := callee.Pkg().Path(); {
			case path == "time" && (callee.Name() == "Now" || callee.Name() == "Since"):
				pass.Reportf(call.Pos(),
					"time.%s in an internal package makes simulation output depend on wall clock; thread simulated time (sim.Time) or measure in cmd/ harnesses only",
					callee.Name())
			case path == "math/rand" || path == "math/rand/v2":
				sig, _ := callee.Type().(*types.Signature)
				if sig != nil && sig.Recv() != nil {
					return true // method on an explicitly seeded *rand.Rand
				}
				switch callee.Name() {
				case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
					return true // deterministic constructors
				}
				pass.Reportf(call.Pos(),
					"rand.%s draws from the process-global generator, which is seeded per run; construct rand.New(rand.NewSource(seed)) and thread it explicitly",
					callee.Name())
			}
			return true
		})
	}
}

// internalPath reports whether an import path lies under an internal/
// tree — the simulation and crypto packages rule 2 governs. Fixture
// packages live under internal/lint/testdata and qualify the same way.
func internalPath(path string) bool {
	return path == "internal" || strings.HasPrefix(path, "internal/") ||
		strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// funcBodies yields every function-like body in a file — each FuncDecl body
// and each FuncLit body — exactly once, with nested literals excluded from
// their enclosing body's walk.
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		visit(fn.Body)
		walkBody(fn.Body, visit)
	}
}

func walkBody(body *ast.BlockStmt, visit func(*ast.BlockStmt)) {
	inspectSkipFuncLits(body, func(n ast.Node) {
		if lit, ok := n.(*ast.FuncLit); ok {
			visit(lit.Body)
			walkBody(lit.Body, visit)
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
