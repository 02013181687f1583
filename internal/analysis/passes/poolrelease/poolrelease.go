// Package poolrelease verifies the workspace-pool contract: a Workspace
// checked out with workspace.Get must be returned with workspace.Put on
// every path out of the checking-out function — otherwise steady-state
// serving degrades from pooled reuse back to per-request allocation (a
// leak the AllocsPerRun tests only catch on the paths they happen to
// exercise).
//
// The check is flow-sensitive: each function body (and each function
// literal, which owns its obligations separately) is lowered to a control
// -flow graph (internal/analysis/cfg) and a forward may-analysis tracks
// the set of held checkouts per path. A diagnostic fires at every return
// — and at the implicit fall-off-the-end return — that a held checkout
// can reach without a release. The accepted shapes are:
//
//   - defer workspace.Put(ws) (directly or inside a deferred closure) —
//     covers every return and panic path at once, and is the idiom the
//     repo standardizes on (core.AnalyzeCtx);
//   - an explicit workspace.Put(ws) on every path to every return — the
//     multi-return form, now path-precise: a Put inside one branch
//     discharges only the paths through that branch.
//
// Rebinding a variable that still holds a checkout (ws = workspace.Get()
// twice without a Put between) is flagged at the second Get: the first
// workspace becomes unreleasable. Escapes are flagged separately:
// returning the workspace moves the release obligation somewhere the
// analyzer cannot see, which the pool contract forbids (workspaces must
// not outlive the analysis that checked them out).
//
// Get/Put recognition is by package name ("workspace") and function name,
// so the analyzer works on the repo and on its testdata packages alike;
// the workspace package itself is exempt (it implements the pool). The
// same contract covers every checkout/release pair the workspace package
// exports: Get/Put for analysis workspaces, GetKernel/PutKernel for
// the distance kernel's pinned-query scratch and GetBody/PutBody for
// gvad's request-body buffers. Pairing is by variable, so a function may
// hold several kinds at once.
//
// Known approximation: a conditionally registered defer (defer inside a
// branch) counts as covering every path, as it always has — flow-aware
// defer facts are not worth the complexity for a repo that never
// conditions a release.
package poolrelease

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"grammarviz/internal/analysis"
	"grammarviz/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolrelease",
	Doc: "checks that every workspace.Get has a matching workspace.Put on all " +
		"paths (defer, or an explicit Put before each return)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "workspace" {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body)
			// Function literals own their obligations separately: the
			// contract wants Put in the function that called Get.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checkoutNames and releaseNames are the pool's paired entry points: a
// call to any checkout name creates a release obligation discharged only
// by the matching variable reaching any release name (the types keep the
// pairs honest — a *Kernel cannot be passed to Put).
var (
	checkoutNames = map[string]bool{"Get": true, "GetKernel": true, "GetBody": true}
	releaseNames  = map[string]bool{"Put": true, "PutKernel": true, "PutBody": true}
)

// isPoolCall reports whether call is workspace.<f>(...) with f's name in
// names.
func isPoolCall(pass *analysis.Pass, call *ast.CallExpr, names map[string]bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !names[f.Name()] || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Name() == "workspace"
}

// fact is the may-set of held checkouts at a program point: variable →
// position of the Get that bound it.
type fact map[*types.Var]token.Pos

// lattice is the forward may-analysis over held checkouts. Variables with
// a deferred release never enter the fact: their obligation is discharged
// on every exit path by the defer.
type lattice struct {
	pass     *analysis.Pass
	deferred map[*types.Var]bool
}

func (l *lattice) Boundary() fact { return fact{} }

func (l *lattice) Merge(a, b fact) fact {
	out := make(fact, len(a)+len(b))
	for v, p := range a {
		out[v] = p
	}
	for v, p := range b {
		if q, ok := out[v]; !ok || p < q {
			out[v] = p
		}
	}
	return out
}

func (l *lattice) Equal(a, b fact) bool {
	if len(a) != len(b) {
		return false
	}
	for v, p := range a {
		if q, ok := b[v]; !ok || q != p {
			return false
		}
	}
	return true
}

func (l *lattice) Transfer(b *cfg.Block, f fact) fact {
	out := make(fact, len(f))
	for v, p := range f {
		out[v] = p
	}
	for _, n := range b.Nodes {
		out = l.step(out, n, nil)
	}
	return out
}

// step flows one node, mutating and returning f. When report is non-nil
// (the post-fixpoint sweep) it also emits the node-anchored diagnostics:
// unbound/discarded checkouts and rebinding over a held checkout.
func (l *lattice) step(f fact, n ast.Node, report func(pos token.Pos, format string, args ...any)) fact {
	pass := l.pass
	handled := map[*ast.CallExpr]bool{}

	bind := func(call *ast.CallExpr, lhs ast.Expr) {
		handled[call] = true
		v := varOf(pass, lhs)
		if v == nil {
			if report != nil {
				report(call.Pos(), "workspace.Get result is discarded; the workspace "+
					"can never be released")
			}
			return
		}
		if l.deferred[v] {
			return // discharged on every exit by the defer
		}
		if prev, held := f[v]; held && report != nil {
			report(call.Pos(), "workspace checkout rebinds %s, which still holds the "+
				"unreleased checkout from %s", v.Name(), pass.Fset.Position(prev))
		}
		f[v] = call.Pos()
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isPoolCall(pass, call, checkoutNames) {
				continue
			}
			var lhs ast.Expr
			if i < len(n.Lhs) {
				lhs = n.Lhs[i]
			}
			bind(call, lhs)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, rhs := range vs.Values {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isPoolCall(pass, call, checkoutNames) {
					continue
				}
				var lhs ast.Expr
				if i < len(vs.Names) {
					lhs = vs.Names[i]
				}
				bind(call, lhs)
			}
		}
	}

	// Releases and stray checkouts anywhere inside the node. Function
	// literals are skipped: they are analyzed as their own bodies.
	analysis.InspectSkippingFuncLits(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		if isPoolCall(pass, call, releaseNames) {
			if len(call.Args) == 1 {
				if v := varOf(pass, call.Args[0]); v != nil {
					delete(f, v)
				}
			}
			return
		}
		if isPoolCall(pass, call, checkoutNames) && !handled[call] {
			if report != nil {
				report(call.Pos(), "workspace.Get result is not bound to a variable "+
					"and can never be released")
			}
		}
	})
	return f
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	lat := &lattice{pass: pass, deferred: deferredReleases(pass, g)}
	res := cfg.Forward[fact](g, lat)

	// checkedOut: every variable bound from a checkout anywhere in this
	// body (escape reporting keys off it, path-insensitively, as before).
	checkedOut := map[*types.Var]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				call, ok := m.(*ast.CallExpr)
				if !ok || !isPoolCall(pass, call, checkoutNames) {
					return true
				}
				// Find the binding through the enclosing statement forms.
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if ast.Unparen(rhs) == call && i < len(n.Lhs) {
							if v := varOf(pass, n.Lhs[i]); v != nil {
								checkedOut[v] = true
							}
						}
					}
				case *ast.DeclStmt:
					if gd, ok := n.Decl.(*ast.GenDecl); ok {
						for _, spec := range gd.Specs {
							if vs, ok := spec.(*ast.ValueSpec); ok {
								for i, rhs := range vs.Values {
									if ast.Unparen(rhs) == call && i < len(vs.Names) {
										if v := varOf(pass, vs.Names[i]); v != nil {
											checkedOut[v] = true
										}
									}
								}
							}
						}
					}
				}
				return true
			})
		}
	}

	// Post-fixpoint sweep: walk each reachable block once with its entry
	// fact, reporting node-anchored findings, escapes, and leaks at
	// returns.
	escaped := map[*types.Var]bool{}
	reportLeaks := func(pos token.Pos, held fact) {
		type leak struct {
			v   *types.Var
			get token.Pos
		}
		var leaks []leak
		for v, get := range held {
			leaks = append(leaks, leak{v, get})
		}
		sort.Slice(leaks, func(i, j int) bool { return leaks[i].get < leaks[j].get })
		for _, lk := range leaks {
			pass.Reportf(pos,
				"return without releasing the workspace checked out at %s; "+
					"defer workspace.Put(%s) after Get, or Put on every path",
				pass.Fset.Position(lk.get), lk.v.Name())
		}
	}

	for _, b := range g.Blocks {
		in, reachable := res.In[b]
		if !reachable {
			continue
		}
		f := make(fact, len(in))
		for v, p := range in {
			f[v] = p
		}
		for _, n := range b.Nodes {
			f = lat.step(f, n, pass.Reportf)
			if ret, ok := n.(*ast.ReturnStmt); ok {
				for _, resExpr := range ret.Results {
					v := varOf(pass, resExpr)
					if v != nil && checkedOut[v] && isWorkspacePtr(v.Type()) && !escaped[v] {
						escaped[v] = true
						pass.Reportf(resExpr.Pos(), "pooled workspace escapes its checkout "+
							"scope; the pool contract requires Put in the function that called Get")
					}
				}
				reportLeaks(ret.Pos(), f)
			}
		}
	}

	// The implicit return: any reachable path that falls off the end of
	// the body while still holding a checkout leaks it.
	for _, b := range g.FallsOff() {
		if out, ok := res.Out[b]; ok {
			reportLeaks(body.Rbrace, out)
		}
	}
}

// deferredReleases collects the variables released by a defer — directly
// (defer workspace.Put(ws)) or inside a deferred closure.
func deferredReleases(pass *analysis.Pass, g *cfg.Graph) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	record := func(call *ast.CallExpr) {
		if len(call.Args) == 1 {
			if v := varOf(pass, call.Args[0]); v != nil {
				out[v] = true
			}
		}
	}
	for _, d := range g.Defers {
		if isPoolCall(pass, d.Call, releaseNames) {
			record(d.Call)
		} else if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && isPoolCall(pass, c, releaseNames) {
					record(c)
				}
				return true
			})
		}
	}
	return out
}

// varOf resolves an expression to the variable it names, or nil.
func varOf(pass *analysis.Pass, e ast.Expr) *types.Var {
	if e == nil {
		return nil
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil {
		v, _ = pass.TypesInfo.Defs[id].(*types.Var)
	}
	return v
}

// isWorkspacePtr reports whether t is a pointer to one of the workspace
// package's pooled types (by name, so testdata packages participate).
func isWorkspacePtr(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return (name == "Workspace" || name == "Kernel") && named.Obj().Pkg().Name() == "workspace"
}
