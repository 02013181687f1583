// Package workspace is a minimal stand-in for the repo's pool; the pass
// recognizes Get/Put by package and function name, and exempts the
// implementing package itself.
package workspace

// Workspace is the pooled scratch object.
type Workspace struct{ Buf []int }

// Get checks a workspace out of the pool.
func Get() *Workspace { return &Workspace{} }

// Put returns a workspace to the pool.
func Put(ws *Workspace) { _ = ws }

// Kernel is the pooled distance-kernel scratch.
type Kernel struct{ QNorm []float64 }

// GetKernel checks a kernel scratch out of the pool.
func GetKernel() *Kernel { return &Kernel{} }

// PutKernel returns a kernel scratch to the pool.
func PutKernel(k *Kernel) { _ = k }

// Body is the pooled request-body buffer.
type Body struct{ Buf []byte }

// GetBody checks a body buffer out of the pool.
func GetBody() *Body { return &Body{} }

// PutBody returns a body buffer to the pool.
func PutBody(b *Body) { _ = b }
