// Package use exercises the poolrelease contract shapes.
package use

import "pr/workspace"

// Deferred is the standard shape: defer covers every path at once.
func Deferred() int {
	ws := workspace.Get()
	defer workspace.Put(ws)
	return len(ws.Buf)
}

// DeferredClosure releases inside a deferred closure.
func DeferredClosure() int {
	ws := workspace.Get()
	defer func() { workspace.Put(ws) }()
	return len(ws.Buf)
}

// VarDecl binds the checkout through a var declaration.
func VarDecl() int {
	var ws = workspace.Get()
	defer workspace.Put(ws)
	return len(ws.Buf)
}

// Leak never releases; the fall-off-the-end path is flagged.
func Leak() {
	ws := workspace.Get()
	_ = ws
} // want `return without releasing the workspace`

// LeakReturn never releases; the explicit return is flagged.
func LeakReturn() int {
	ws := workspace.Get()
	return len(ws.Buf) // want `return without releasing the workspace`
}

// MultiPath releases on one path only; the uncovered return is flagged.
func MultiPath(b bool) int {
	ws := workspace.Get()
	if b {
		workspace.Put(ws)
		return 1
	}
	return 2 // want `return without releasing the workspace`
}

// MultiPathClean releases on every path — the explicit multi-return form.
func MultiPathClean(b bool) int {
	ws := workspace.Get()
	if b {
		workspace.Put(ws)
		return 1
	}
	workspace.Put(ws)
	return 2
}

// Escape hands the pooled workspace to the caller, moving the release
// obligation out of the analyzer's sight; the uncovered return is flagged
// too.
func Escape() *workspace.Workspace {
	ws := workspace.Get()
	return ws // want `escapes its checkout scope` `return without releasing the workspace`
}

// New returns a fresh workspace, not a pool checkout; constructors are
// not escapes.
func New() *workspace.Workspace {
	return &workspace.Workspace{}
}

// Discard drops the checkout on the floor.
func Discard() {
	workspace.Get() // want `not bound to a variable`
}

// Allowlisted leaks but carries a reviewed suppression on the line above
// the virtual fall-off-the-end return.
func Allowlisted() {
	ws := workspace.Get()
	_ = ws
	//gvad:ignore poolrelease fixture for the allowlisted-negative path
}

// KernelDeferred: the GetKernel/PutKernel pair follows the same contract
// as Get/Put.
func KernelDeferred() int {
	kw := workspace.GetKernel()
	defer workspace.PutKernel(kw)
	return len(kw.QNorm)
}

// KernelLeak never releases the kernel scratch.
func KernelLeak() {
	kw := workspace.GetKernel()
	_ = kw
} // want `return without releasing the workspace`

// BodyDeferred: the GetBody/PutBody pair follows the same contract.
func BodyDeferred() int {
	b := workspace.GetBody()
	defer workspace.PutBody(b)
	return len(b.Buf)
}

// BodyLeakOnError releases the body buffer on the success path only.
func BodyLeakOnError(fail bool) int {
	b := workspace.GetBody()
	if fail {
		return -1 // want `return without releasing the workspace`
	}
	workspace.PutBody(b)
	return 0
}

// BothKinds holds a workspace and a kernel scratch at once; pairing is by
// variable, so releasing only one flags the other.
func BothKinds(b bool) int {
	ws := workspace.Get()
	defer workspace.Put(ws)
	kw := workspace.GetKernel()
	if b {
		workspace.PutKernel(kw)
		return 1
	}
	return 2 // want `return without releasing the workspace`
}

// BranchBoth releases on both arms before a shared return — the lexical
// analyzer flagged this (the Puts sit in sibling blocks); the
// flow-sensitive one proves every path released.
func BranchBoth(b bool) int {
	ws := workspace.Get()
	if b {
		workspace.Put(ws)
	} else {
		workspace.Put(ws)
	}
	return 1
}

// LoopEach checks out and releases per iteration; the fall-off path
// leaves the loop with nothing held.
func LoopEach(n int) {
	for i := 0; i < n; i++ {
		ws := workspace.Get()
		workspace.Put(ws)
	}
}

// Rebind overwrites a variable that still holds a checkout: the first
// workspace becomes unreleasable even though the second is Put.
func Rebind() {
	ws := workspace.Get()
	ws = workspace.Get() // want `rebinds ws`
	workspace.Put(ws)
}

// SwitchLeak releases on one arm and the fall-through path but not the
// other arm.
func SwitchLeak(x int) int {
	ws := workspace.Get()
	switch x {
	case 1:
		workspace.Put(ws)
		return 1
	case 2:
		return 2 // want `return without releasing the workspace`
	}
	workspace.Put(ws)
	return 0
}

// ClosureOwn: a function literal owns its obligations separately from
// its enclosing function.
func ClosureOwn() func() {
	return func() {
		ws := workspace.Get()
		_ = ws
	} // want `return without releasing the workspace`
}

// LoopCarriedLeak: the continue path skips the Put, so the next
// iteration's Get rebinds a held checkout and the loop exit still holds
// one.
func LoopCarriedLeak(n int) {
	for i := 0; i < n; i++ {
		ws := workspace.Get() // want `rebinds ws`
		if i == 0 {
			continue
		}
		workspace.Put(ws)
	}
} // want `return without releasing the workspace`
