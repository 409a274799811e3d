package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// The fuzz targets below harden the annotation grammar — the one place
// the analyzers consume free-form user text. Each embeds the fuzz input
// into a source file, parses it, and runs the real collectors: the grammar
// must never panic, and malformed annotations must never register (a bare
// ignore silently eating findings, or a glued hotpath prefix silently
// widening the zero-alloc closure, would be a security-relevant bug).

func fuzzPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
	if err != nil {
		t.Skip("input does not parse")
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Error: func(error) {}} // best-effort, like the loader
	tpkg, _ := conf.Check("fuzz", fset, []*ast.File{f}, info)
	return &Package{Path: "fuzz", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func FuzzCollectIgnores(f *testing.F) {
	f.Add("//secmemlint:ignore verifydrop the simulator records tampers\nvar x int")
	f.Add("var x int //secmemlint:ignore secretflow demo output is public")
	f.Add("//secmemlint:ignore maccompare")                  // no reason: must not register
	f.Add("//secmemlint:ignore a,b reason words")            // multi-analyzer
	f.Add("// secmemlint:ignore\tverifydrop\ttabbed reason") // whitespace forms
	f.Add("//secmemlint:ignoreverifydrop glued prefix")
	f.Fuzz(func(t *testing.T, body string) {
		pkg := fuzzPackage(t, "package p\n"+body+"\n")
		set := collectIgnores(pkg)
		for file, byLine := range set {
			if file == "" {
				t.Error("suppression registered with empty filename")
			}
			for line, names := range byLine {
				if line <= 0 {
					t.Errorf("suppression registered on impossible line %d", line)
				}
				if len(names) == 0 {
					t.Errorf("%s:%d: suppression registered with no analyzer names", file, line)
				}
			}
		}
		// Re-scan the source: every registered suppression must trace back
		// to a comment that carried both an analyzer list and a reason.
		for _, byLine := range set {
			total := 0
			for _, names := range byLine {
				total += len(names)
			}
			if total > 0 && !ignoreWithReasonExists(pkg) {
				t.Error("suppression registered but no well-formed ignore comment exists")
			}
		}
	})
}

// ignoreWithReasonExists reports whether any comment in pkg is a
// well-formed ignore (analyzer list plus at least one reason word).
func ignoreWithReasonExists(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				if len(strings.Fields(strings.TrimPrefix(text, ignorePrefix))) >= 2 {
					return true
				}
			}
		}
	}
	return false
}

func FuzzSecretAnnotation(f *testing.F) {
	f.Add("type v struct {\n\t//secmemlint:secret — the key\n\tkey []byte\n}")
	f.Add("//secmemlint:secret key return\nfunc g(key []byte) []byte { return key }")
	f.Add("var k = 1 //secmemlint:secret")
	f.Add("//secmemlint:secret name1 name2 name3\nfunc h(name1, name2 int) int { return name1 }")
	f.Add("//secmemlint:secret\n//secmemlint:secret twice\nvar y int")
	f.Fuzz(func(t *testing.T, body string) {
		pkg := fuzzPackage(t, "package p\n"+body+"\n")
		idx := collectSecrets([]*Package{pkg})
		for obj := range idx.objs {
			if obj == nil {
				t.Error("nil object registered as secret")
			}
		}
		// The index must be usable downstream: summary computation over the
		// fuzzed package must also not panic.
		computeInterproc([]*Package{pkg}, idx, collectIgnores(pkg))
	})
}

func FuzzHotpathAnnotation(f *testing.F) {
	f.Add("//secmemlint:hotpath\nfunc hot() {}")
	f.Add("// MulTable multiplies.\n//secmemlint:hotpath per-block kernel\nfunc mul() {}")
	f.Add("//secmemlint:hotpathglued must not register\nfunc g() {}")
	f.Add("// secmemlint:hotpath spaced marker form\nfunc s() {}")
	f.Add("//secmemlint:hotpath\nfunc root() { helper() }\nfunc helper() { _ = make([]byte, 1) }")
	f.Add("func trailing() {} //secmemlint:hotpath not a doc comment")
	f.Fuzz(func(t *testing.T, body string) {
		pkg := fuzzPackage(t, "package p\n"+body+"\n")
		pkgs := []*Package{pkg}
		g := buildCallGraph(pkgs)
		// A root must trace back to a doc comment whose marker is exactly
		// the prefix or the prefix followed by a space — a glued suffix like
		// "hotpathglued" widening the closure would silently hold the wrong
		// code to the zero-alloc standard (or miss the right code).
		for _, fn := range hotPathRoots(g) {
			decl := g.decls[fn]
			if decl == nil || !hasHotPathDoc(decl.Doc) {
				t.Fatalf("root %s registered without a well-formed hotpath doc comment", fn.Name())
			}
			found := false
			for _, c := range decl.Doc.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if text == hotPathPrefix || strings.HasPrefix(text, hotPathPrefix+" ") {
					found = true
				}
			}
			if !found {
				t.Fatalf("root %s accepted from a malformed marker", fn.Name())
			}
		}
		// The full audit must be well-formed on arbitrary input: valid line
		// ranges, every closure member attributed to at least one root, and
		// the root lists sorted (the artifact contract ESCAPE.json relies on).
		for _, h := range HotPathAudit(pkgs) {
			if h.Func == "" || h.File == "" {
				t.Errorf("audit entry with empty identity: %+v", h)
			}
			if h.StartLine <= 0 || h.EndLine < h.StartLine {
				t.Errorf("%s: impossible line range %d-%d", h.Func, h.StartLine, h.EndLine)
			}
			if len(h.Roots) == 0 {
				t.Errorf("%s: in the hot closure but attributed to no root", h.Func)
			}
			if !sort.StringsAreSorted(h.Roots) {
				t.Errorf("%s: unsorted root list %v", h.Func, h.Roots)
			}
		}
	})
}
