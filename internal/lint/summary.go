package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of the taint engine: per-function
// flow summaries computed by a fixpoint over the call graph's strongly
// connected components (callgraph.go), callees first. A summary answers,
// for one function, "which inputs flow where" — into each result, into the
// receiver's storage, into each parameter's storage (out-params), into
// package-level variables, and into logging sinks inside the body —
// without naming any concrete secret. The intra-procedural engine
// (taint.go) then instantiates summaries at every call site, so a secret
// laundered through an arbitrary chain of unannotated helpers is tracked
// automatically and "//secmemlint:secret" shrinks to true roots.
//
// Inputs are tracked as a small bitset: one bit for "secret" (annotated
// data observed directly), one for the receiver, and one per parameter.
// Summary computation runs the shared fixpoint with each parameter seeded
// by its own bit ("virtual taint"); instantiation maps those bits to the
// labels of the actual arguments at a call site, which keeps the analysis
// context-sensitive — a generic helper is not poisoned for every caller
// just because one caller feeds it a secret.
//
// Soundness caveats (also in DESIGN.md §12): calls through interfaces and
// function values have no summary and fall back to a conservative
// unknown-callee model (results and mutable-reference arguments receive
// the union of all input labels); method values detached from their
// receiver lose the receiver's labels; and effects applied at call sites
// taint only targets that resolve to a plain identifier, so a write into
// x.y.z's storage does not taint x (matching lhsObj's selector-stopping
// rule that keeps field writes from tainting whole structs).

// labelSet is the taint bitset: which function inputs (or the secret
// lattice point itself) an expression's value is derived from.
type labelSet uint64

const (
	// secretLabel marks data derived from an annotated secret.
	secretLabel labelSet = 1 << 0
	// recvLabel marks data derived from the receiver (summary mode).
	recvLabel labelSet = 1 << 1
	// overflowLabel stands in for every parameter past the bitset's
	// capacity; instantiation expands it to the union of all arguments.
	overflowLabel labelSet = 1 << 63
)

// maxParamLabels is how many parameters get their own bit (2..62).
const maxParamLabels = 61

func paramLabel(i int) labelSet {
	if i < 0 || i >= maxParamLabels {
		return overflowLabel
	}
	return 1 << (2 + uint(i))
}

// inputLabels masks the bits that summary sinks may depend on: parameters
// only. Receiver-borne sinks are deliberately excluded — every
// secret-bearing field in this repository is annotated, so receiver flows
// into sinks are reported directly inside the method body, and
// receiver-bit sink facts would flag container bookkeeping (lengths,
// cursors) at every call on a tainted value.
const inputLabels = ^(secretLabel | recvLabel)

// A summary is one function's interprocedural flow table.
type summary struct {
	fn *types.Func
	// results[i] holds the labels flowing into result i.
	results []labelSet
	// aliasResults[i] holds the labels whose backing storage result i may
	// alias (the taintescape notion, composable through helpers).
	aliasResults []labelSet
	// recv holds labels written into the receiver's storage.
	recv labelSet
	// params[i] holds labels written into parameter i's storage
	// (out-parameter flows — the hole the intra-procedural engine
	// documented and could not close).
	params []labelSet
	// globals holds labels written into package-level variables.
	globals map[types.Object]labelSet
	// fields holds labels written into struct-field storage reachable from
	// the receiver, a parameter, or a global. Field objects are tracked
	// per-field, not per-instance (the same approximation labelsOf reads
	// with), which keeps one secret-bearing field from tainting its whole
	// struct — the precision the single recv bit cannot express.
	fields map[types.Object]labelSet
	// sinks lists parameter-indexed sink facts: "data carrying these
	// labels reaches this sink somewhere under this function".
	sinks []sinkFact
}

// A sinkFact records that input data reaches a secretflow sink inside (or
// transitively below) a function.
type sinkFact struct {
	labels labelSet
	desc   string // human description of the ultimate sink
}

// maxSinkFacts bounds per-function sink tables so pathological fan-in
// cannot balloon summaries; beyond the cap facts merge into the last slot.
const maxSinkFacts = 48

func newSummary(fn *types.Func) *summary {
	sig := fn.Type().(*types.Signature)
	return &summary{
		fn:           fn,
		results:      make([]labelSet, sig.Results().Len()),
		aliasResults: make([]labelSet, sig.Results().Len()),
		params:       make([]labelSet, sig.Params().Len()),
		globals:      make(map[types.Object]labelSet),
		fields:       make(map[types.Object]labelSet),
	}
}

func (s *summary) addSink(bits labelSet, desc string) {
	bits &= inputLabels
	if bits == 0 {
		return
	}
	for i := range s.sinks {
		f := &s.sinks[i]
		if f.desc == desc {
			f.labels |= bits
			return
		}
	}
	if len(s.sinks) >= maxSinkFacts {
		last := &s.sinks[len(s.sinks)-1]
		last.labels |= bits
		return
	}
	s.sinks = append(s.sinks, sinkFact{labels: bits, desc: desc})
}

func (s *summary) equal(o *summary) bool {
	if o == nil || s.recv != o.recv || len(s.sinks) != len(o.sinks) ||
		len(s.globals) != len(o.globals) || len(s.fields) != len(o.fields) {
		return false
	}
	for i := range s.results {
		if s.results[i] != o.results[i] || s.aliasResults[i] != o.aliasResults[i] {
			return false
		}
	}
	for i := range s.params {
		if s.params[i] != o.params[i] {
			return false
		}
	}
	for g, v := range s.globals {
		if o.globals[g] != v {
			return false
		}
	}
	for fld, v := range s.fields {
		if o.fields[fld] != v {
			return false
		}
	}
	for i := range s.sinks {
		if s.sinks[i] != o.sinks[i] {
			return false
		}
	}
	return true
}

// empty reports whether the summary carries no information worth dumping.
func (s *summary) empty() bool {
	if s.recv != 0 || len(s.sinks) > 0 || len(s.globals) > 0 || len(s.fields) > 0 {
		return false
	}
	for _, v := range s.results {
		if v != 0 {
			return false
		}
	}
	for _, v := range s.aliasResults {
		if v != 0 {
			return false
		}
	}
	for _, v := range s.params {
		if v != 0 {
			return false
		}
	}
	return true
}

// interproc is the module-wide interprocedural state shared by every pass
// of one Run: the call graph, the converged summary table, and the
// module's suppression set (load-bearing here: a suppressed sink site must
// not propagate sink facts to its callers, or hardware-model exemptions
// would resurface at every call site).
type interproc struct {
	graph     *callGraph
	summaries map[*types.Func]*summary
	ignores   ignoreSet
	// secretGlobals records package-level variables promoted to secret
	// because some call chain stores secret-derived data into them.
	secretGlobals map[types.Object]bool
}

// maxGlobalRounds bounds the outer fixpoint that promotes secret-receiving
// globals and re-runs summary computation with the enlarged root set.
const maxGlobalRounds = 4

// maxSCCIters bounds the within-component iteration for recursive cycles.
const maxSCCIters = 32

// computeInterproc builds the call graph and runs the SCC fixpoint,
// attaching the result to idx so the intra-procedural engine can
// instantiate summaries at call sites.
func computeInterproc(pkgs []*Package, idx *SecretIndex, ignores ignoreSet) *interproc {
	ip := &interproc{
		graph:         buildCallGraph(pkgs),
		ignores:       ignores,
		secretGlobals: make(map[types.Object]bool),
	}
	idx.interp = ip
	comps := ip.graph.sccs()
	for round := 0; round < maxGlobalRounds; round++ {
		ip.summaries = make(map[*types.Func]*summary, len(ip.graph.decls))
		for _, comp := range comps {
			ip.fixpointSCC(idx, comp)
		}
		// Promote globals that received secret-labeled data anywhere in the
		// module, then recompute: reads of those globals are now secret.
		// Fields are deliberately NOT promoted module-wide: the simulator
		// stores ciphertexts and clipped MACs — key-derived but public by
		// the paper's security argument — into device-model fields (DRAM
		// cells, counter images), and promoting those would taint every
		// read of the memory model. Persistent secret state must carry a
		// "//secmemlint:secret" annotation on the field; field effects
		// still flow within a calling function (applySummaryEffects).
		promoted := false
		for _, sum := range ip.summaries {
			for g, bits := range sum.globals {
				if bits&secretLabel != 0 && !idx.objs[g] {
					idx.objs[g] = true
					ip.secretGlobals[g] = true
					promoted = true
				}
			}
		}
		if !promoted {
			break
		}
	}
	return ip
}

// fixpointSCC iterates one strongly connected component until its members'
// summaries stabilize. Singleton components converge in one pass plus the
// equality check; recursive cycles iterate (labels only accumulate, so
// termination is structural; the cap is a safety net).
func (ip *interproc) fixpointSCC(idx *SecretIndex, comp []*types.Func) {
	for _, fn := range comp {
		ip.summaries[fn] = newSummary(fn)
	}
	for iter := 0; iter < maxSCCIters; iter++ {
		changed := false
		for _, fn := range comp {
			next := ip.summarize(idx, fn)
			if !next.equal(ip.summaries[fn]) {
				ip.summaries[fn] = next
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// summarize computes one function's summary against the current summary
// table: run the shared fixpoint with virtual input labels, then read off
// result, receiver, out-param, global, and sink flows.
func (ip *interproc) summarize(idx *SecretIndex, fn *types.Func) *summary {
	decl := ip.graph.decls[fn]
	pkg := ip.graph.pkgOf[fn]
	sum := newSummary(fn)
	ft := &funcTaint{
		labels: make(map[types.Object]labelSet),
		alias:  make(map[types.Object]labelSet),
	}
	ctx := &taintCtx{
		idx:   idx,
		pkg:   pkg,
		info:  pkg.Info,
		ft:    ft,
		sum:   sum,
		slots: make(map[types.Object]int),
	}

	// Seed the receiver and each parameter with its own bit.
	if decl.Recv != nil {
		for _, field := range decl.Recv.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					ctx.slots[obj] = recvSlot
					ft.labels[obj] |= recvLabel
					ft.alias[obj] |= recvLabel
				}
			}
		}
	}
	if decl.Type.Params != nil {
		i := 0
		for _, field := range decl.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					ctx.slots[obj] = i
					ft.labels[obj] |= paramLabel(i)
					ft.alias[obj] |= paramLabel(i)
				}
				i++
			}
		}
	}

	ctx.fixpoint(decl.Body)
	ctx.collectResults(decl, sum)

	// Fold whole-variable label growth on receiver/param objects into the
	// out-effects: a callee that taints *p, or a summary-applied effect on
	// the variable itself, is a write into the caller-visible storage.
	for obj, slot := range ctx.slots {
		seed := recvLabel
		if slot != recvSlot {
			seed = paramLabel(slot)
		}
		extra := ft.labels[obj] &^ seed
		if extra == 0 {
			continue
		}
		if slot == recvSlot {
			sum.recv |= extra
		} else if slot < len(sum.params) {
			sum.params[slot] |= extra
		}
	}

	ctx.collectSinks(decl.Body)
	return sum
}

// recvSlot marks the receiver in taintCtx.slots.
const recvSlot = -1

// collectResults unions labels into the summary's result slots from every
// return statement of the function proper (closures return for
// themselves, not for fn).
func (c *taintCtx) collectResults(decl *ast.FuncDecl, sum *summary) {
	nres := len(sum.results)
	if nres == 0 {
		return
	}
	// Named results can be assigned and returned bare.
	var named []types.Object
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			for _, name := range field.Names {
				named = append(named, c.info.Defs[name])
			}
		}
	}
	forEachReturn(decl.Body, func(ret *ast.ReturnStmt) {
		switch {
		case len(ret.Results) == 0:
			for i, obj := range named {
				if obj != nil && i < nres {
					sum.results[i] |= c.ft.labels[obj]
					sum.aliasResults[i] |= c.ft.alias[obj]
				}
			}
		case len(ret.Results) == nres:
			for i, res := range ret.Results {
				sum.results[i] |= c.labelsOf(res)
				sum.aliasResults[i] |= c.aliasLabelsOf(res)
			}
		case len(ret.Results) == 1:
			// return f() forwarding a multi-result call: spread per index
			// when the callee has a summary, else smear the union.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				if per := c.callResultLabels(call); per != nil && len(per) == nres {
					for i := range per {
						sum.results[i] |= per[i]
					}
					return
				}
			}
			bits := c.labelsOf(ret.Results[0])
			for i := range sum.results {
				sum.results[i] |= bits
			}
		}
	})
	// Assignments through named results count even without a bare return.
	for i, obj := range named {
		if obj != nil && i < nres {
			sum.results[i] |= c.ft.labels[obj]
			sum.aliasResults[i] |= c.ft.alias[obj]
		}
	}
}

// forEachReturn visits the return statements belonging to body's own
// function, skipping nested function literals.
func forEachReturn(body *ast.BlockStmt, f func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			f(n)
		}
		return true
	})
}

// collectSinks records parameter-indexed sink facts: direct secretflow
// sink sites inside the body, plus facts propagated from callee summaries.
// Suppressed sites contribute nothing — the ignore at the site is the
// sanctioned exemption and must silence the whole chain above it.
func (c *taintCtx) collectSinks(body *ast.BlockStmt) {
	add := func(pos token.Pos, bits labelSet, desc string) {
		bits &= inputLabels
		if bits == 0 || c.ignoredAt(pos) {
			return
		}
		c.sum.addSink(bits, desc)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if desc, ok := sinkCallDesc(c.info, call); ok {
			for _, arg := range call.Args {
				add(arg.Pos(), c.labelsOf(arg), desc)
			}
		}
		if sum, sig := c.calleeSummary(call); sum != nil {
			for _, f := range sum.sinks {
				add(call.Pos(), c.instantiate(f.labels, call, sig), viaDesc(f.desc, sum.fn.Name()))
			}
		}
		return true
	})
}

// viaDesc tags a propagated sink description with the first hop so call
// site reports name both the immediate callee and the ultimate sink.
func viaDesc(desc, callee string) string {
	if strings.Contains(desc, " (via ") {
		return desc
	}
	return desc + " (via " + callee + ")"
}

// ignoredAt reports whether a secretflow finding at pos is silenced by a
// "//secmemlint:ignore" comment.
func (c *taintCtx) ignoredAt(pos token.Pos) bool {
	if c.idx.interp == nil {
		return false
	}
	p := c.pkg.Fset.Position(pos)
	return c.idx.interp.ignores.suppresses(Diagnostic{Analyzer: secretFlowName, File: p.Filename, Line: p.Line})
}

// checkCallSiteSinks reports, at a call site, secret-derived arguments that
// a callee summary says reach a secretflow sink somewhere below the call.
// Reports anchor on the offending argument so line suppressions work the
// same as for direct findings.
func checkCallSiteSinks(pass *Pass, ctx *taintCtx, call *ast.CallExpr) {
	sum, sig := ctx.calleeSummary(call)
	if sum == nil {
		return
	}
	reported := make(map[token.Pos]bool)
	report := func(arg ast.Expr, desc string) {
		if reported[arg.Pos()] || ctx.labelsOf(arg)&secretLabel == 0 {
			return
		}
		reported[arg.Pos()] = true
		pass.Reportf(arg.Pos(),
			"secret-derived argument flows through %s into %s; key, pad, tag-state, and plaintext material must never leave through logs, errors, metrics, or traces",
			sum.fn.Name(), desc)
	}
	nparams := 0
	if sig != nil {
		nparams = sig.Params().Len()
	}
	for _, f := range sum.sinks {
		if f.labels&overflowLabel != 0 {
			for _, arg := range call.Args {
				report(arg, f.desc)
			}
			continue
		}
		for i := 0; i < nparams; i++ {
			if f.labels&paramLabel(i) == 0 {
				continue
			}
			if sig.Variadic() && i == nparams-1 {
				for j := i; j < len(call.Args); j++ {
					report(call.Args[j], f.desc)
				}
			} else if i < len(call.Args) {
				report(call.Args[i], f.desc)
			}
		}
	}
}

// DumpSummaries renders the inferred interprocedural flow table for pkgs,
// the cmd/secmemlint -dump-summaries debug view. Only functions with a
// non-empty summary appear; label sets print as input names.
func DumpSummaries(pkgs []*Package) string {
	idx := collectSecrets(pkgs)
	ignores := collectModuleIgnores(pkgs)
	ip := computeInterproc(pkgs, idx, ignores)
	var b strings.Builder
	for _, fn := range ip.graph.order {
		sum := ip.summaries[fn]
		if sum == nil || sum.empty() {
			continue
		}
		sig := fn.Type().(*types.Signature)
		fmt.Fprintf(&b, "%s\n", fn.FullName())
		for i, bits := range sum.results {
			if bits != 0 {
				fmt.Fprintf(&b, "  result[%d] <- %s\n", i, labelString(bits, sig))
			}
		}
		for i, bits := range sum.aliasResults {
			if bits != 0 {
				fmt.Fprintf(&b, "  result[%d] aliases %s\n", i, labelString(bits, sig))
			}
		}
		if sum.recv != 0 {
			fmt.Fprintf(&b, "  recv <- %s\n", labelString(sum.recv, sig))
		}
		for i, bits := range sum.params {
			if bits != 0 {
				fmt.Fprintf(&b, "  param %s <- %s\n", paramName(sig, i), labelString(bits, sig))
			}
		}
		var effects []string
		for g, bits := range sum.globals {
			effects = append(effects, fmt.Sprintf("  global %s <- %s", g.Name(), labelString(bits, sig)))
		}
		for fld, bits := range sum.fields {
			effects = append(effects, fmt.Sprintf("  field %s <- %s", fld.Name(), labelString(bits, sig)))
		}
		sort.Strings(effects)
		for _, line := range effects {
			b.WriteString(line + "\n")
		}
		for _, f := range sum.sinks {
			fmt.Fprintf(&b, "  sink %q <- %s\n", f.desc, labelString(f.labels, sig))
		}
	}
	return b.String()
}

func paramName(sig *types.Signature, i int) string {
	if i < sig.Params().Len() {
		if name := sig.Params().At(i).Name(); name != "" {
			return name
		}
	}
	return fmt.Sprintf("#%d", i)
}

func labelString(bits labelSet, sig *types.Signature) string {
	var parts []string
	if bits&secretLabel != 0 {
		parts = append(parts, "secret")
	}
	if bits&recvLabel != 0 {
		parts = append(parts, "recv")
	}
	for i := 0; i < maxParamLabels && i < sig.Params().Len(); i++ {
		if bits&paramLabel(i) != 0 {
			parts = append(parts, paramName(sig, i))
		}
	}
	if bits&overflowLabel != 0 {
		parts = append(parts, "args...")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}
