// Command escapeaudit holds the per-access hot paths to zero heap escapes
// with the compiler's own escape analysis.
//
// The lint side (internal/lint.HotPathAudit) computes the call-graph closure
// of every "//secmemlint:hotpath" root. This tool compiles the module with
// -gcflags=-m, collects the "escapes to heap" / "moved to heap" diagnostics
// that land inside a closure member's line range, and writes the result as
// ESCAPE.json — a committed artifact, so any change to the hot paths' heap
// behaviour shows up as a reviewable diff (CI regenerates the file and
// fails on drift). Together with each root package's testing.AllocsPerRun
// test it is the whole zero-allocation gate: the runtime count also sees
// allocations this report never lists, such as append growth of a local
// slice, which the compiler does not print as an escape.
//
//	escapeaudit                 # regenerate ESCAPE.json, fail on unsanctioned escapes
//	escapeaudit -out other.json # write elsewhere
//	escapeaudit -check          # compare a fresh audit against ESCAPE.json, write nothing
//
// A diagnostic is sanctioned when its function carries a hotpathalloc
// suppression ("//secmemlint:ignore hotpathalloc <reason>" anywhere in the
// declaration, matching HotFunc.Suppressed), when the diagnostic's own line
// carries one, or when an identical diagnostic text is sanctioned elsewhere
// in the closure — the compiler attributes an inlined callee's escapes to
// the call site, so grow's sanctioned make reappears verbatim inside Seal
// and Open. Two classes are excluded up front: constant strings boxed for
// panic ("..." escapes to heap), which point into static data and never
// allocate at run time, and everything outside the hot closure.
//
// Exit status: 0 clean, 1 unsanctioned escapes or -check drift, 2 on
// tooling errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"secmem/internal/lint"
)

const schemaID = "secmem-escape-audit-v1"

// Artifact is the committed ESCAPE.json shape.
type Artifact struct {
	Schema string `json:"schema"`
	// Funcs lists every hot-closure member with the escape diagnostics
	// inside it, ordered by file and start line. Paths are module-relative.
	Funcs []FuncAudit `json:"funcs"`
}

type FuncAudit struct {
	Func       string   `json:"func"`
	File       string   `json:"file"`
	StartLine  int      `json:"start_line"`
	EndLine    int      `json:"end_line"`
	Roots      []string `json:"roots"`
	Root       bool     `json:"root,omitempty"`
	Suppressed bool     `json:"suppressed,omitempty"`
	Escapes    []Escape `json:"escapes,omitempty"`
}

type Escape struct {
	Line int    `json:"line"`
	Text string `json:"text"`
	// Sanctioned marks diagnostics covered by a hotpathalloc suppression
	// (directly, at function granularity, or as an inlined copy of a
	// sanctioned diagnostic).
	Sanctioned bool `json:"sanctioned,omitempty"`
}

func main() {
	out := flag.String("out", "ESCAPE.json", "artifact path to write")
	check := flag.Bool("check", false, "compare a fresh audit against -out instead of writing")
	flag.Parse()

	art, bad, err := audit()
	if err != nil {
		fmt.Fprintln(os.Stderr, "escapeaudit:", err)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "escapeaudit:", err)
		os.Exit(2)
	}
	data = append(data, '\n')

	status := 0
	for _, msg := range bad {
		fmt.Fprintln(os.Stderr, "escapeaudit: unsanctioned escape:", msg)
		status = 1
	}
	if *check {
		committed, err := os.ReadFile(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "escapeaudit:", err)
			os.Exit(2)
		}
		if !bytes.Equal(committed, data) {
			fmt.Fprintf(os.Stderr, "escapeaudit: %s is stale; regenerate with `make escape-audit` and commit the diff\n", *out)
			os.Exit(1)
		}
		fmt.Printf("escapeaudit: %s up to date (%d hot functions)\n", *out, len(art.Funcs))
		os.Exit(status)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "escapeaudit:", err)
		os.Exit(2)
	}
	fmt.Printf("escapeaudit: wrote %s (%d hot functions)\n", *out, len(art.Funcs))
	os.Exit(status)
}

// diagRe matches one compiler diagnostic line: path:line:col: message.
var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// constStringRe matches a constant string boxed for panic/interface use;
// its data pointer targets rodata, so nothing allocates at run time.
var constStringRe = regexp.MustCompile(`^".*" escapes to heap$`)

type diag struct {
	file string // module-relative, slash-separated
	line int
	text string
}

func audit() (*Artifact, []string, error) {
	// The compiler prints paths relative to the working directory, and
	// HotPathAudit's are absolute: resolve both against the module root.
	modRoot, err := moduleRoot()
	if err != nil {
		return nil, nil, err
	}

	diags, err := compilerDiags(modRoot)
	if err != nil {
		return nil, nil, err
	}

	pkgs, err := lint.Load(modRoot, []string{"./..."})
	if err != nil {
		return nil, nil, err
	}
	hot := lint.HotPathAudit(pkgs)
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].File != hot[j].File {
			return hot[i].File < hot[j].File
		}
		return hot[i].StartLine < hot[j].StartLine
	})

	// Site-level sanctions: hotpathalloc (or all-analyzer) suppression
	// comments by file:line.
	siteOK := make(map[string]map[int]bool)
	for _, s := range lint.Suppressions(pkgs) {
		for _, name := range s.Analyzers {
			if name != "hotpathalloc" && name != "all" {
				continue
			}
			rel := relPath(modRoot, s.File)
			if siteOK[rel] == nil {
				siteOK[rel] = make(map[int]bool)
			}
			siteOK[rel][s.Line] = true
		}
	}

	art := &Artifact{Schema: schemaID}
	for _, h := range hot {
		fa := FuncAudit{
			Func:       h.Func,
			File:       relPath(modRoot, h.File),
			StartLine:  h.StartLine,
			EndLine:    h.EndLine,
			Roots:      h.Roots,
			Root:       h.Root,
			Suppressed: h.Suppressed,
		}
		for _, d := range diags {
			if d.file != fa.File || d.line < fa.StartLine || d.line > fa.EndLine {
				continue
			}
			fa.Escapes = append(fa.Escapes, Escape{Line: d.line, Text: d.text,
				Sanctioned: fa.Suppressed || siteOK[d.file][d.line]})
		}
		art.Funcs = append(art.Funcs, fa)
	}
	// Second pass: inlined copies of sanctioned diagnostics carry the same
	// text at the inlining call site.
	sanctionedTexts := make(map[string]bool)
	for i := range art.Funcs {
		for _, e := range art.Funcs[i].Escapes {
			if e.Sanctioned {
				sanctionedTexts[e.Text] = true
			}
		}
	}
	var bad []string
	for i := range art.Funcs {
		fa := &art.Funcs[i]
		for j := range fa.Escapes {
			e := &fa.Escapes[j]
			if !e.Sanctioned && sanctionedTexts[e.Text] {
				e.Sanctioned = true
			}
			if !e.Sanctioned {
				bad = append(bad, fmt.Sprintf("%s:%d: %s (in %s)", fa.File, e.Line, e.Text, fa.Func))
			}
		}
	}
	return art, bad, nil
}

// compilerDiags runs go build -gcflags=-m over the module and keeps the
// heap-allocation verdicts ("escapes to heap", "moved to heap"); inlining
// chatter, "does not escape", and "leaking param" flow facts are dropped,
// as are constant-string boxes (static data).
func compilerDiags(modRoot string) ([]diag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	var diags []diag
	for _, line := range strings.Split(string(out), "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		text := m[4]
		if !strings.Contains(text, "escapes to heap") && !strings.Contains(text, "moved to heap") {
			continue
		}
		if constStringRe.MatchString(text) {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		diags = append(diags, diag{file: filepath.ToSlash(m[1]), line: n, text: text})
	}
	return diags, nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func relPath(modRoot, abs string) string {
	if rel, err := filepath.Rel(modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}
