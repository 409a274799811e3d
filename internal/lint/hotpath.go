package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// A "//secmemlint:hotpath" comment in a function's doc marks it a hot root
// — code executed for every simulated memory transfer (pad generation,
// per-block MAC, table multiplies, the functional read/write paths). The
// hot closure is every module function reachable from a root over the
// call graph of callgraph.go. Nothing here judges the closure's bodies:
// cmd/escapeaudit holds it to zero heap escapes with the compiler's own
// escape analysis (the committed ESCAPE.json), and each root's package
// pins it to zero allocations per call with testing.AllocsPerRun.

// hotPathPrefix marks hot roots in function doc comments.
const hotPathPrefix = "secmemlint:hotpath"

// hotPathIgnoreName is the suppression key that sanctions an allocation on
// the hot closure: "//secmemlint:ignore hotpathalloc <reason>".
const hotPathIgnoreName = "hotpathalloc"

// HotFunc is one function on the hot-path closure — the unit the
// ESCAPE.json escape-analysis audit (cmd/escapeaudit) checks.
type HotFunc struct {
	// Func is the fully qualified function name.
	Func string `json:"func"`
	// File and the line range locate the declaration (doc comment through
	// closing brace), so compiler escape diagnostics can be mapped in.
	File      string `json:"file"`
	StartLine int    `json:"start_line"`
	EndLine   int    `json:"end_line"`
	// Roots lists the annotated hot roots whose closures include this
	// function; Root marks the function as itself annotated.
	Roots []string `json:"roots"`
	Root  bool     `json:"root,omitempty"`
	// Suppressed reports that the function body carries at least one
	// hotpathalloc suppression: escape diagnostics inside it are sanctioned
	// at function granularity.
	Suppressed bool `json:"suppressed,omitempty"`
}

// HotPathAudit computes the hot-path closure of pkgs and returns one entry
// per member, ordered by file position — the lint side of the ESCAPE.json
// contract. It needs only the call graph and the suppression set, not the
// interprocedural summaries.
func HotPathAudit(pkgs []*Package) []HotFunc {
	g := buildCallGraph(pkgs)
	ignores := collectModuleIgnores(pkgs)
	roots := hotPathRoots(g)
	closure := hotClosure(g, roots)
	isRoot := make(map[*types.Func]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}
	var audit []HotFunc
	for _, fn := range g.order {
		if vias, ok := closure[fn]; ok {
			audit = append(audit, auditEntry(g, ignores, fn, vias, isRoot[fn]))
		}
	}
	return audit
}

// hotPathRoots returns the annotated functions in deterministic order.
func hotPathRoots(g *callGraph) []*types.Func {
	var roots []*types.Func
	for _, fn := range g.order {
		if hasHotPathDoc(g.decls[fn].Doc) {
			roots = append(roots, fn)
		}
	}
	return roots
}

func hasHotPathDoc(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotPathPrefix || strings.HasPrefix(text, hotPathPrefix+" ") {
			return true
		}
	}
	return false
}

// hotClosure walks the call graph from each root and maps every reachable
// module function to the sorted names of the roots that reach it. Edges
// are the reference-based over-approximation of callgraph.go, which is the
// safe direction here: a function mentioned on a hot path is held to the
// hot-path standard even if the mention is a stored callback.
func hotClosure(g *callGraph, roots []*types.Func) map[*types.Func][]string {
	reached := make(map[*types.Func]map[string]bool)
	for _, root := range roots {
		name := root.Name()
		queue := []*types.Func{root}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			m := reached[fn]
			if m == nil {
				m = make(map[string]bool)
				reached[fn] = m
			}
			if m[name] {
				continue
			}
			m[name] = true
			queue = append(queue, g.callees[fn]...)
		}
	}
	out := make(map[*types.Func][]string, len(reached))
	for fn, m := range reached {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		out[fn] = names
	}
	return out
}

func auditEntry(g *callGraph, ignores ignoreSet, fn *types.Func, vias []string, isRoot bool) HotFunc {
	decl := g.decls[fn]
	fset := g.pkgOf[fn].Fset
	start := fset.Position(decl.Pos())
	if decl.Doc != nil {
		start = fset.Position(decl.Doc.Pos())
	}
	end := fset.Position(decl.End())
	h := HotFunc{
		Func:      fn.FullName(),
		File:      start.Filename,
		StartLine: start.Line,
		EndLine:   end.Line,
		Roots:     vias,
		Root:      isRoot,
	}
	for line, names := range ignores[start.Filename] {
		if line < start.Line || line > end.Line {
			continue
		}
		for _, n := range names {
			if n == hotPathIgnoreName || n == "all" {
				h.Suppressed = true
			}
		}
	}
	return h
}
