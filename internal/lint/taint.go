package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the taint/dataflow engine underneath the secretflow and
// taintescape analyzers. Secrecy is a property the Go type
// system cannot express: a []byte holding an AES key schedule and a []byte
// holding a public trace label have the same type. The engine adds that
// missing bit as a lattice of label sets (summary.go) seeded by explicit
// "//secmemlint:secret" annotations and propagated through assignments,
// composite literals, indexing/slicing, arithmetic and XOR, and calls.
//
// Annotation grammar (the sources of taint):
//
//	//secmemlint:secret [prose...]
//	    on a struct field (doc or trailing comment), a var declaration, or
//	    the line directly above either: the declared names are secret.
//	    Trailing prose documents what the secret is.
//
//	//secmemlint:secret name[ name...]
//	    in a function's doc comment: each name is a parameter or receiver
//	    name to treat as secret inside the body; the keyword "return" marks
//	    the function's results as secret at every call site.
//
// Deliberate exceptions (the allowlisted set) use the ordinary
// "//secmemlint:ignore <analyzer> <reason>" mechanism at the finding site,
// so every place the discipline is waived carries its justification.
//
// Cross-function flow is inferred: calls to functions declared anywhere in
// the module are resolved through the interprocedural summaries of
// summary.go, which propagate param/receiver -> result/receiver/out-param
// flows automatically. The named-annotation form above remains only for
// roots the analysis cannot see (and for fixtures); helpers no longer need
// it. Known holes, accepted for predictability: effects applied at call
// sites taint only targets resolving to a plain identifier (a write into
// x.y.z's storage does not taint x), and writes into a struct field taint
// the field object, not the enclosing struct variable.
const secretPrefix = "secmemlint:secret"

// declassifiedPkgs are import paths whose function results are public even
// when fed secrets: crypto/subtle reduces secrets to publishable decisions
// in constant time, which is exactly the sanctioned exit from the lattice.
var declassifiedPkgs = map[string]bool{
	"crypto/subtle": true,
}

// SecretIndex is the module-wide annotation table built once per Run over
// every loaded package, so a secret declared in gf128 stays secret when
// gcmmode touches it through a selector.
type SecretIndex struct {
	// objs holds annotated objects: struct fields, parameters, receivers,
	// and variables — plus package-level vars promoted by the
	// interprocedural engine because secret data flows into them.
	objs map[types.Object]bool
	// results holds functions whose results are annotated secret.
	results map[types.Object]bool
	// taints caches per-function dataflow results across the analyzers of
	// one Run.
	taints map[*ast.FuncDecl]*funcTaint
	// interp is the interprocedural summary table (summary.go), attached
	// by Run before any analyzer executes.
	interp *interproc
}

// collectSecrets builds the annotation index over all loaded packages.
func collectSecrets(pkgs []*Package) *SecretIndex {
	idx := &SecretIndex{
		objs:    make(map[types.Object]bool),
		results: make(map[types.Object]bool),
		taints:  make(map[*ast.FuncDecl]*funcTaint),
	}
	for _, pkg := range pkgs {
		idx.collectPackage(pkg)
	}
	return idx
}

// secretComment extracts the argument text of a secret annotation comment,
// reporting ok=false for non-annotation comments.
func secretComment(c *ast.Comment) (args string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, secretPrefix) {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(text, secretPrefix)), true
}

func groupHasSecret(g *ast.CommentGroup) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if _, ok := secretComment(c); ok {
			return true
		}
	}
	return false
}

func (idx *SecretIndex) collectPackage(pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		// Attachment pass: struct fields, var specs, and function docs.
		// Comments consumed here are excluded from the line-based pass so a
		// function-level annotation cannot double as a line annotation for
		// whatever sits beneath it.
		consumed := make(map[*ast.Comment]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					idx.collectField(info, field, consumed)
				}
			case *ast.ValueSpec:
				if groupHasSecret(n.Doc) || groupHasSecret(n.Comment) {
					for _, name := range n.Names {
						if obj := info.Defs[name]; obj != nil {
							idx.objs[obj] = true
						}
					}
					markConsumed(n.Doc, consumed)
					markConsumed(n.Comment, consumed)
				}
			case *ast.GenDecl:
				if n.Tok == token.VAR && groupHasSecret(n.Doc) {
					for _, spec := range n.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							if obj := info.Defs[name]; obj != nil {
								idx.objs[obj] = true
							}
						}
					}
					markConsumed(n.Doc, consumed)
				}
			case *ast.FuncDecl:
				idx.collectFuncDoc(info, n, consumed)
			}
			return true
		})

		// Line pass: a bare annotation on a var's line or the line directly
		// above taints the names defined there (covers short declarations
		// and unparenthesized vars, whose trailing comments float free in
		// the AST).
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if consumed[c] {
					continue
				}
				if _, ok := secretComment(c); ok {
					lines[pkg.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(lines) == 0 {
			continue
		}
		for ident, obj := range info.Defs {
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			pos := pkg.Fset.Position(ident.Pos())
			if pos.Filename != pkg.Fset.Position(f.Pos()).Filename {
				continue
			}
			if lines[pos.Line] || lines[pos.Line-1] {
				idx.objs[v] = true
			}
		}
	}
}

func markConsumed(g *ast.CommentGroup, consumed map[*ast.Comment]bool) {
	if g == nil {
		return
	}
	for _, c := range g.List {
		consumed[c] = true
	}
}

func (idx *SecretIndex) collectField(info *types.Info, field *ast.Field, consumed map[*ast.Comment]bool) {
	if !groupHasSecret(field.Doc) && !groupHasSecret(field.Comment) {
		return
	}
	for _, name := range field.Names {
		if obj := info.Defs[name]; obj != nil {
			idx.objs[obj] = true
		}
	}
	markConsumed(field.Doc, consumed)
	markConsumed(field.Comment, consumed)
}

// collectFuncDoc handles the named form in function doc comments:
// "//secmemlint:secret key h return" marks params/receiver key and h secret
// and the results secret.
func (idx *SecretIndex) collectFuncDoc(info *types.Info, fn *ast.FuncDecl, consumed map[*ast.Comment]bool) {
	if fn.Doc == nil {
		return
	}
	var names []string
	for _, c := range fn.Doc.List {
		args, ok := secretComment(c)
		if !ok {
			continue
		}
		consumed[c] = true
		names = append(names, strings.FieldsFunc(args, func(r rune) bool {
			return r == ' ' || r == ',' || r == '\t'
		})...)
	}
	if len(names) == 0 {
		return
	}
	// Resolve names among the receiver, parameters, and named results.
	byName := make(map[string]types.Object)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				if obj := info.Defs[id]; obj != nil {
					byName[id.Name] = obj
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	addFields(fn.Type.Results)
	for _, name := range names {
		if name == "return" {
			if obj := info.Defs[fn.Name]; obj != nil {
				idx.results[obj] = true
			}
			continue
		}
		if obj, ok := byName[name]; ok {
			idx.objs[obj] = true
		}
		// Unknown names are ignored: annotations must not break the build,
		// and the golden fixtures pin the resolved behavior.
	}
}

// funcTaint is the fixpoint result for one function body: the label sets
// carried by each object. In the analyzers' runtime mode only secretLabel
// is ever seeded; summary computation additionally seeds receiver and
// parameter bits (summary.go).
type funcTaint struct {
	// labels holds value taint: which inputs an object's contents derive
	// from. Struct-field objects appear here when a field is written with
	// labeled data (per-field, not per-instance, which is the conservative
	// direction).
	labels map[types.Object]labelSet
	// alias holds storage aliasing: which inputs' backing storage an
	// object may share (the taintescape notion).
	alias map[types.Object]labelSet
}

// taintCtx bundles what an analyzer needs to query taint inside one
// function: the module index, the package's type info, and the function's
// fixpoint state. sum and slots are non-nil only while summary.go computes
// the enclosing function's interprocedural summary.
type taintCtx struct {
	idx  *SecretIndex
	pkg  *Package
	info *types.Info
	ft   *funcTaint
	// sum accumulates out-effects and sink facts during summary mode.
	sum *summary
	// slots maps receiver/parameter objects to their slot (recvSlot for
	// the receiver) during summary mode.
	slots map[types.Object]int
	// changed tracks label growth within one fixpoint sweep.
	changed bool
}

// analyze returns the taint context for fn, computing and caching the
// runtime-mode fixpoint on first use.
func (idx *SecretIndex) analyze(pass *Pass, fn *ast.FuncDecl) *taintCtx {
	ft, ok := idx.taints[fn]
	if !ok {
		ft = &funcTaint{
			labels: make(map[types.Object]labelSet),
			alias:  make(map[types.Object]labelSet),
		}
		idx.taints[fn] = ft
		if fn.Body != nil {
			ctx := &taintCtx{idx: idx, pkg: pass.Pkg, info: pass.Pkg.Info, ft: ft}
			ctx.fixpoint(fn.Body)
		}
	}
	return &taintCtx{idx: idx, pkg: pass.Pkg, info: pass.Pkg.Info, ft: ft}
}

// fixpoint iterates the transfer functions until the label sets stop
// growing. Labels only accumulate, so termination is bounded by objects
// times label bits; the iteration cap is a safety net, not a limit hit in
// practice.
func (c *taintCtx) fixpoint(body *ast.BlockStmt) {
	for i := 0; i < 1000; i++ {
		c.changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				c.transferAssign(n)
			case *ast.ValueSpec:
				c.transferValueSpec(n)
			case *ast.RangeStmt:
				c.transferRange(n)
			case *ast.CallExpr:
				c.transferCopy(n)
				c.transferCallEffects(n)
			}
			return true
		})
		if !c.changed {
			return
		}
	}
}

// addLabels merges bits into obj's value labels.
func (c *taintCtx) addLabels(obj types.Object, bits labelSet) {
	if obj == nil || bits == 0 {
		return
	}
	if c.ft.labels[obj]&bits != bits {
		c.ft.labels[obj] |= bits
		c.changed = true
	}
}

func (c *taintCtx) addAlias(obj types.Object, bits labelSet) {
	if obj == nil || bits == 0 {
		return
	}
	if c.ft.alias[obj]&bits != bits {
		c.ft.alias[obj] |= bits
		c.changed = true
	}
}

// lhsObj resolves an assignment target to the object whose contents the
// write lands in: a plain identifier, possibly through index, slice,
// dereference, address-of, or parens. Selector chains stop resolution: a
// write into one field must not taint the whole struct variable
// (f.key[i] = b taints neither f nor f.c); the field object itself is
// handled by fieldOf.
func (c *taintCtx) lhsObj(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.info.Uses[e]; obj != nil {
			return obj
		}
		return c.info.Defs[e]
	case *ast.IndexExpr:
		return c.lhsObj(e.X)
	case *ast.SliceExpr:
		return c.lhsObj(e.X)
	case *ast.StarExpr:
		return c.lhsObj(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.lhsObj(e.X)
		}
	}
	return nil
}

// fieldOf resolves a write target that lands in a struct field to the
// field object (x.y[i] = v labels field y), or nil.
func (c *taintCtx) fieldOf(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return v
			}
		}
	case *ast.IndexExpr:
		return c.fieldOf(e.X)
	case *ast.SliceExpr:
		return c.fieldOf(e.X)
	case *ast.StarExpr:
		return c.fieldOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.fieldOf(e.X)
		}
	}
	return nil
}

// storageRoot resolves the outermost object a write reaches through any
// chain of selectors, indexes, and dereferences. Used only for recording
// summary out-effects (a write into d.buf is an effect on receiver d).
func (c *taintCtx) storageRoot(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.info.Uses[e]; obj != nil {
			return obj
		}
		return c.info.Defs[e]
	case *ast.IndexExpr:
		return c.storageRoot(e.X)
	case *ast.SliceExpr:
		return c.storageRoot(e.X)
	case *ast.StarExpr:
		return c.storageRoot(e.X)
	case *ast.SelectorExpr:
		return c.storageRoot(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.storageRoot(e.X)
		}
	}
	return nil
}

// assign applies a labeled write to target: the plain-identifier root if
// one exists, else the struct field being written; and, in summary mode,
// records the out-effect on receiver/param/field/global storage.
func (c *taintCtx) assign(target ast.Expr, bits labelSet) {
	if bits == 0 {
		return
	}
	if obj := c.lhsObj(target); obj != nil {
		c.addLabels(obj, bits)
		c.recordEffect(target, bits)
	} else if fld := c.fieldOf(target); fld != nil {
		c.addLabels(fld, bits)
		c.recordFieldEffect(fld, c.storageRoot(target), bits)
	}
}

// recordEffect notes, during summary computation, that a write carrying
// bits lands in storage reachable from the receiver, a parameter, or a
// package-level variable.
func (c *taintCtx) recordEffect(target ast.Expr, bits labelSet) {
	if c.sum == nil || bits == 0 {
		return
	}
	root := c.storageRoot(target)
	if root == nil {
		return
	}
	if slot, ok := c.slots[root]; ok {
		// Drop the slot's own seed bit: x = x is not an effect.
		seed := recvLabel
		if slot != recvSlot {
			seed = paramLabel(slot)
		}
		bits &^= seed
		if bits == 0 {
			return
		}
		if slot == recvSlot {
			c.sum.recv |= bits
		} else if slot < len(c.sum.params) {
			c.sum.params[slot] |= bits
		}
		return
	}
	if v, ok := root.(*types.Var); ok && !v.IsField() && v.Parent() != nil &&
		v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		c.sum.globals[v] |= bits
	}
}

// recordFieldEffect notes, during summary computation, a labeled write into
// a struct field of caller-visible storage (receiver, parameter, or
// package variable). The receiver bit is dropped: labelsOf already folds a
// tainted receiver variable into every field read, so keeping it would
// only let bookkeeping flows (d.n += len(p)) escalate into module-wide
// field promotion.
func (c *taintCtx) recordFieldEffect(fld types.Object, root types.Object, bits labelSet) {
	bits &^= recvLabel
	if c.sum == nil || bits == 0 || root == nil {
		return
	}
	if _, ok := c.slots[root]; !ok {
		v, isVar := root.(*types.Var)
		if !isVar || v.IsField() || v.Parent() == nil || v.Pkg() == nil ||
			v.Parent() != v.Pkg().Scope() {
			return // a local struct's field labels die with this function
		}
	}
	c.sum.fields[fld] |= bits
}

func (c *taintCtx) transferAssign(n *ast.AssignStmt) {
	// Tuple forms: x, ok := m[k] / v, ok := y.(T) / multi-return call.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		rhs := ast.Unparen(n.Rhs[0])
		switch rhs := rhs.(type) {
		case *ast.IndexExpr, *ast.TypeAssertExpr:
			// The comma-ok bool reveals presence, not contents: taint the
			// value, leave ok public (branching on map presence is how the
			// on-chip residency checks work and is address-, not
			// secret-, dependent).
			c.assign(n.Lhs[0], c.labelsOf(rhs))
		case *ast.CallExpr:
			// Per-result precision when the callee has a summary, so a
			// public second result (count, ok) does not inherit the first
			// result's secrecy.
			if per := c.callResultLabels(rhs); per != nil && len(per) == len(n.Lhs) {
				for i, lhs := range n.Lhs {
					c.assign(lhs, per[i])
				}
				return
			}
			bits := c.labelsOf(rhs)
			for _, lhs := range n.Lhs {
				c.assign(lhs, bits)
			}
		}
		return
	}
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		lhs := n.Lhs[i]
		c.assign(lhs, c.labelsOf(rhs))
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// x op= rhs keeps x's own labels; no alias rebinding.
			continue
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if bits := c.aliasLabelsOf(rhs); bits != 0 {
				c.addAlias(c.lhsObj(id), bits)
			}
		}
	}
}

func (c *taintCtx) transferValueSpec(n *ast.ValueSpec) {
	for i, v := range n.Values {
		if i >= len(n.Names) {
			break
		}
		obj := c.info.Defs[n.Names[i]]
		c.addLabels(obj, c.labelsOf(v))
		c.addAlias(obj, c.aliasLabelsOf(v))
	}
}

func (c *taintCtx) transferRange(n *ast.RangeStmt) {
	bits := c.labelsOf(n.X)
	if bits == 0 {
		return
	}
	if n.Value != nil {
		c.assign(n.Value, bits)
	}
	// Keys of slices/arrays are indices (public); map keys share the
	// container's secrecy.
	if n.Key != nil {
		if tv, ok := c.info.Types[n.X]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				c.assign(n.Key, bits)
			}
		}
	}
}

// transferCopy models the copy builtin: copying from a labeled source
// labels the destination's contents.
func (c *taintCtx) transferCopy(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return
	}
	if b, ok := c.info.Uses[id].(*types.Builtin); !ok || b.Name() != "copy" {
		return
	}
	c.assign(call.Args[0], c.labelsOf(call.Args[1]))
}

// transferCallEffects applies a callee's out-effects at the call site: the
// summary's receiver/param/global flows for module functions, or the
// conservative unknown-callee model (all inputs flow into every
// mutable-reference argument and the receiver) for everything else except
// declassified packages and builtins.
func (c *taintCtx) transferCallEffects(call *ast.CallExpr) {
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	obj := calleeObject(c.info, call)
	if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
		return // copy handled by transferCopy; the rest have no effects
	}
	fn, _ := obj.(*types.Func)
	if fn != nil {
		if pkg := fn.Pkg(); pkg != nil && declassifiedPkgs[pkg.Path()] {
			return
		}
		if sum, sig := c.summaryFor(fn); sum != nil {
			c.applySummaryEffects(call, sum, sig)
			return
		}
	}
	// Unknown callee (stdlib, interface method, function value): assume
	// every input can flow into every mutable-reference argument and the
	// receiver. binary.BigEndian.PutUint64(dst, secret) must taint dst.
	bits := c.callInputLabels(call)
	if bits == 0 {
		return
	}
	for _, arg := range call.Args {
		if c.mutableRef(arg) {
			c.assign(arg, bits)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := c.info.Selections[sel]; isSel {
			c.assign(sel.X, bits)
		}
	}
}

func (c *taintCtx) applySummaryEffects(call *ast.CallExpr, sum *summary, sig *types.Signature) {
	if sum.recv != 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			c.assign(sel.X, c.instantiate(sum.recv, call, sig))
		}
	}
	nparams := sig.Params().Len()
	for i, eff := range sum.params {
		if eff == 0 {
			continue
		}
		bits := c.instantiate(eff, call, sig)
		if bits == 0 {
			continue
		}
		if sig.Variadic() && i == nparams-1 {
			for j := i; j < len(call.Args); j++ {
				c.assign(call.Args[j], bits)
			}
		} else if i < len(call.Args) {
			c.assign(call.Args[i], bits)
		}
	}
	for g, eff := range sum.globals {
		bits := c.instantiate(eff, call, sig)
		if bits == 0 {
			continue
		}
		if c.sum != nil {
			c.sum.globals[g] |= bits
		}
		c.addLabels(g, bits)
	}
	for fld, eff := range sum.fields {
		bits := c.instantiate(eff, call, sig) &^ recvLabel
		if bits == 0 {
			continue
		}
		if c.sum != nil {
			c.sum.fields[fld] |= bits
		}
		c.addLabels(fld, bits)
	}
}

// mutableRef reports whether an argument's type lets the callee write
// through it into caller-visible storage.
func (c *taintCtx) mutableRef(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// callInputLabels unions the labels of every argument and the receiver.
func (c *taintCtx) callInputLabels(call *ast.CallExpr) labelSet {
	var bits labelSet
	for _, arg := range call.Args {
		bits |= c.labelsOf(arg)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := c.info.Selections[sel]; isSel {
			bits |= c.labelsOf(sel.X)
		}
	}
	return bits
}

// summaryFor returns fn's interprocedural summary, if one was computed.
func (c *taintCtx) summaryFor(fn *types.Func) (*summary, *types.Signature) {
	if c.idx.interp == nil {
		return nil, nil
	}
	sum, ok := c.idx.interp.summaries[fn]
	if !ok {
		return nil, nil
	}
	// During summary computation the enclosing function's own (possibly
	// in-progress) summary is read from the table like any other SCC
	// member; the SCC fixpoint iterates to convergence.
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil, nil
	}
	return sum, sig
}

// calleeSummary resolves a call to a module function's summary.
func (c *taintCtx) calleeSummary(call *ast.CallExpr) (*summary, *types.Signature) {
	fn, ok := calleeObject(c.info, call).(*types.Func)
	if !ok {
		return nil, nil
	}
	return c.summaryFor(fn)
}

// instantiate maps a summary label set to call-site labels: the secret bit
// passes through, the receiver bit becomes the receiver expression's
// labels, each parameter bit becomes its argument's labels, and the
// overflow bit becomes the union of everything.
func (c *taintCtx) instantiate(ls labelSet, call *ast.CallExpr, sig *types.Signature) labelSet {
	return c.instantiateWith(ls, call, sig, c.labelsOf)
}

func (c *taintCtx) instantiateWith(ls labelSet, call *ast.CallExpr, sig *types.Signature, labelFn func(ast.Expr) labelSet) labelSet {
	out := ls & secretLabel
	if ls == out {
		return out
	}
	if ls&recvLabel != 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := c.info.Selections[sel]; isSel {
				out |= labelFn(sel.X)
			}
		}
	}
	if ls&overflowLabel != 0 {
		for _, arg := range call.Args {
			out |= labelFn(arg)
		}
	}
	nparams := sig.Params().Len()
	for i := 0; i < nparams && i < maxParamLabels; i++ {
		if ls&paramLabel(i) == 0 {
			continue
		}
		if sig.Variadic() && i == nparams-1 {
			for j := i; j < len(call.Args); j++ {
				out |= labelFn(call.Args[j])
			}
		} else if i < len(call.Args) {
			out |= labelFn(call.Args[i])
		}
	}
	return out
}

// Tainted reports whether evaluating e can yield secret-derived data — the
// analyzers' runtime query.
func (c *taintCtx) Tainted(e ast.Expr) bool {
	return c.labelsOf(e)&secretLabel != 0
}

// labelsOf computes the label set of an expression's value.
func (c *taintCtx) labelsOf(e ast.Expr) labelSet {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		obj := c.info.Uses[e]
		if obj == nil {
			obj = c.info.Defs[e]
		}
		if obj == nil {
			return 0
		}
		bits := c.ft.labels[obj]
		if c.idx.objs[obj] {
			bits |= secretLabel
		}
		return bits
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[e]; ok {
			bits := c.labelsOf(e.X) // any field of a labeled value is labeled
			if c.idx.objs[sel.Obj()] {
				bits |= secretLabel
			}
			bits |= c.ft.labels[sel.Obj()]
			return bits
		}
		// Qualified identifier pkg.Name.
		obj := c.info.Uses[e.Sel]
		if obj == nil {
			return 0
		}
		bits := c.ft.labels[obj]
		if c.idx.objs[obj] {
			bits |= secretLabel
		}
		return bits
	case *ast.IndexExpr:
		// Element of a labeled container, or a lookup keyed by a labeled
		// index (sbox[k]): both yield correlated data.
		return c.labelsOf(e.X) | c.labelsOf(e.Index)
	case *ast.SliceExpr:
		return c.labelsOf(e.X)
	case *ast.ParenExpr:
		return c.labelsOf(e.X)
	case *ast.StarExpr:
		return c.labelsOf(e.X)
	case *ast.UnaryExpr:
		return c.labelsOf(e.X)
	case *ast.BinaryExpr:
		// Arithmetic, XOR, shifts, and even comparisons propagate: a bool
		// computed from a secret is a secret-dependent decision.
		return c.labelsOf(e.X) | c.labelsOf(e.Y)
	case *ast.CompositeLit:
		var bits labelSet
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			bits |= c.labelsOf(elt)
		}
		return bits
	case *ast.TypeAssertExpr:
		return c.labelsOf(e.X)
	case *ast.CallExpr:
		return c.callLabels(e)
	}
	return 0
}

// callResultLabels returns per-result label sets for a call with a module
// summary, or nil when no per-result information exists.
func (c *taintCtx) callResultLabels(call *ast.CallExpr) []labelSet {
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	fn, ok := calleeObject(c.info, call).(*types.Func)
	if !ok {
		return nil
	}
	sum, sig := c.summaryFor(fn)
	if sum == nil {
		return nil
	}
	extra := labelSet(0)
	if c.idx.results[fn] {
		extra = secretLabel
	}
	out := make([]labelSet, len(sum.results))
	for i, r := range sum.results {
		out[i] = c.instantiate(r, call, sig) | extra
	}
	return out
}

func (c *taintCtx) callLabels(call *ast.CallExpr) labelSet {
	// Conversions pass labels through: uint32(k), []byte(s), string(b).
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return c.labelsOf(call.Args[0])
		}
		return 0
	}
	obj := calleeObject(c.info, call)
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "append":
			var bits labelSet
			for _, a := range call.Args {
				bits |= c.labelsOf(a)
			}
			return bits
		default:
			// len, cap, make, new, and copy (returns a count) yield
			// lengths or fresh allocations: public by construction.
			return 0
		}
	}
	if fn, ok := obj.(*types.Func); ok {
		if pkg := fn.Pkg(); pkg != nil && declassifiedPkgs[pkg.Path()] {
			return 0
		}
		var bits labelSet
		if c.idx.results[fn] {
			bits |= secretLabel
		}
		if sum, sig := c.summaryFor(fn); sum != nil {
			for _, r := range sum.results {
				bits |= c.instantiate(r, call, sig)
			}
			return bits
		}
		// External function without a summary: conservatively assume the
		// results derive from every input.
		return bits | c.callInputLabels(call)
	}
	// Indirect call through a function value: same conservative model.
	return c.callInputLabels(call)
}

// calleeObject resolves a call's target to its types.Object (function,
// method, builtin), or nil for indirect calls through function values.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// AliasesSecret reports whether e directly aliases secret backing storage:
// an annotated object or field, a reslice of one, a local previously
// assigned such an alias, or a call whose summary says the result aliases
// secret-bearing argument storage. append and copy idioms break aliasing —
// their results are caller-owned memory.
func (c *taintCtx) AliasesSecret(e ast.Expr) bool {
	return c.aliasLabelsOf(e)&secretLabel != 0
}

// aliasLabelsOf computes which inputs' backing storage e may alias.
func (c *taintCtx) aliasLabelsOf(e ast.Expr) labelSet {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.info.Uses[e]
		if obj == nil {
			obj = c.info.Defs[e]
		}
		if obj == nil {
			return 0
		}
		bits := c.ft.alias[obj]
		if c.idx.objs[obj] {
			bits |= secretLabel
		}
		return bits
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[e]; ok {
			bits := c.aliasLabelsOf(e.X)
			if c.idx.objs[sel.Obj()] {
				bits |= secretLabel
			}
			return bits
		}
		obj := c.info.Uses[e.Sel]
		if obj != nil && c.idx.objs[obj] {
			return secretLabel
		}
		return 0
	case *ast.SliceExpr:
		return c.aliasLabelsOf(e.X)
	case *ast.ParenExpr:
		return c.aliasLabelsOf(e.X)
	case *ast.StarExpr:
		return c.aliasLabelsOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.aliasLabelsOf(e.X)
		}
	case *ast.CallExpr:
		// A call aliases what its summary says the result aliases,
		// instantiated with the arguments' own alias labels; everything
		// else (builtins, externals) returns caller-owned memory.
		sum, sig := c.calleeSummary(e)
		if sum == nil {
			return 0
		}
		var bits labelSet
		for _, r := range sum.aliasResults {
			bits |= c.instantiateWith(r, e, sig, c.aliasLabelsOf)
		}
		return bits
	}
	return 0
}

// isSliceExpr reports whether e's type is a slice (the shape that can
// escape as an alias; arrays are copied by value at return).
func isSliceExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Slice)
	return ok
}
