package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSrc writes files (path -> contents) into a throwaway module and loads
// every package recursively, so tests can typecheck small programs without
// touching the repository tree.
func loadSrc(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.21\n"
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture does not typecheck: %v", terr)
		}
	}
	return pkgs
}

func interprocFor(t *testing.T, pkgs []*Package) *interproc {
	t.Helper()
	return computeInterproc(pkgs, collectSecrets(pkgs), collectModuleIgnores(pkgs))
}

func (ip *interproc) funcNamed(t *testing.T, name string) *summary {
	t.Helper()
	for _, fn := range ip.graph.order {
		if fn.Name() == name {
			return ip.summaries[fn]
		}
	}
	t.Fatalf("no function %q in call graph", name)
	return nil
}

// TestCallGraphRecursionCycle pins the SCC machinery: a mutually recursive
// pair must form one component, emitted before the component of its caller
// (callees-first order), and self-recursion must form a singleton cycle
// that still converges.
func TestCallGraphRecursionCycle(t *testing.T) {
	pkgs := loadSrc(t, map[string]string{
		"p/p.go": `package p

func a(x int) int {
	if x == 0 {
		return x
	}
	return b(x - 1)
}

func b(x int) int { return a(x) }

func caller(x int) int { return a(x) }

func selfRec(x int) int {
	if x == 0 {
		return x
	}
	return selfRec(x - 1)
}
`,
	})
	ip := interprocFor(t, pkgs)
	comps := ip.graph.sccs()
	pos := map[string]int{} // function name -> component index
	for i, comp := range comps {
		for _, fn := range comp {
			pos[fn.Name()] = i
		}
	}
	if pos["a"] != pos["b"] {
		t.Errorf("a and b are mutually recursive but landed in components %d and %d", pos["a"], pos["b"])
	}
	if pos["caller"] <= pos["a"] {
		t.Errorf("caller's component (%d) must come after its callee's (%d)", pos["caller"], pos["a"])
	}
	// Taint must flow around both cycle shapes: result <- param through
	// the recursion.
	for _, name := range []string{"a", "b", "selfRec", "caller"} {
		sum := ip.funcNamed(t, name)
		if sum == nil || len(sum.results) == 0 || sum.results[0]&paramLabel(0) == 0 {
			t.Errorf("%s: recursive summary lost the result <- x flow: %+v", name, sum)
		}
	}
}

// TestCallGraphIndirectEdges pins that method values and function
// references stored into callback slots create call-graph edges — the
// over-approximation that keeps stored-callback taint flows visible.
func TestCallGraphIndirectEdges(t *testing.T) {
	pkgs := loadSrc(t, map[string]string{
		"p/p.go": `package p

type dev struct{ n int }

func (d *dev) step(x int) int { return x + d.n }

func helper(x int) int { return x }

type hooks struct{ fn func(int) int }

func wire(d *dev) *hooks {
	h := &hooks{fn: helper} // stored callback: edge wire -> helper
	_ = d.step              // method value: edge wire -> dev.step
	return h
}
`,
	})
	ip := interprocFor(t, pkgs)
	var wireCallees []string
	for fn := range ip.graph.decls {
		if fn.Name() == "wire" {
			for _, c := range ip.graph.callees[fn] {
				wireCallees = append(wireCallees, c.Name())
			}
		}
	}
	for _, want := range []string{"helper", "step"} {
		found := false
		for _, got := range wireCallees {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Errorf("call graph is missing the wire -> %s edge (got %v)", want, wireCallees)
		}
	}
}

// TestSummaryCompositionThreeDeep pins that flows compose across a chain of
// unannotated helpers: the outermost summary must carry result <- param and
// the sink fact inferred three calls down.
func TestSummaryCompositionThreeDeep(t *testing.T) {
	pkgs := loadSrc(t, map[string]string{
		"p/p.go": `package p

import "fmt"

func inner(x []byte) string { return fmt.Sprintf("%x", x) }

func mid(x []byte) string { return inner(x) }

func outer(x []byte) string { return mid(x) }

func fillInner(dst, src []byte) { copy(dst, src) }

func fillOuter(dst, src []byte) { fillInner(dst, src) }
`,
	})
	ip := interprocFor(t, pkgs)
	outer := ip.funcNamed(t, "outer")
	if outer == nil {
		t.Fatal("outer has no summary")
	}
	if len(outer.results) == 0 || outer.results[0]&paramLabel(0) == 0 {
		t.Errorf("outer lost result <- x through the three-deep chain: %+v", outer)
	}
	foundSink := false
	for _, f := range outer.sinks {
		if f.labels&paramLabel(0) != 0 {
			foundSink = true
			if !strings.Contains(f.desc, "fmt.Sprintf") {
				t.Errorf("outer sink fact lost the ultimate sink description: %q", f.desc)
			}
		}
	}
	if !foundSink {
		t.Errorf("outer did not inherit inner's fmt.Sprintf sink fact: %+v", outer.sinks)
	}
	// Out-parameter effects compose the same way.
	fill := ip.funcNamed(t, "fillOuter")
	if fill == nil || len(fill.params) == 0 || fill.params[0]&paramLabel(1) == 0 {
		t.Errorf("fillOuter lost the dst <- src out-parameter flow: %+v", fill)
	}
}

// TestLaunderedSecretDetected is the regression the ISSUE demands: a secret
// pushed through an unannotated helper must still be reported at the sink,
// and the same helper fed public data must stay silent.
func TestLaunderedSecretDetected(t *testing.T) {
	pkgs := loadSrc(t, map[string]string{
		"p/p.go": `package p

import "fmt"

type vault struct {
	//secmemlint:secret — root annotation; helpers below are unannotated
	key []byte
}

func render(b []byte) string { return fmt.Sprintf("%x", b) }

func (v *vault) leak() string { return render(v.key) }

func describe() string { return render([]byte("public")) }
`,
	})
	diags := Run(pkgs, []*Analyzer{SecretFlow})
	if len(diags) != 1 {
		t.Fatalf("want exactly one finding (the laundered key, not the public call), got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "flows through render into fmt.Sprintf") {
		t.Errorf("finding does not name the laundering chain: %s", diags[0].Message)
	}
}

// TestDumpSummaries exercises the -dump-summaries debug view end to end.
func TestDumpSummaries(t *testing.T) {
	pkgs := loadSrc(t, map[string]string{
		"p/p.go": `package p

func pass(x int) int { return x }
`,
	})
	out := DumpSummaries(pkgs)
	if !strings.Contains(out, "fixture/p.pass") || !strings.Contains(out, "result[0] <- x") {
		t.Errorf("dump is missing the inferred pass-through flow:\n%s", out)
	}
}
