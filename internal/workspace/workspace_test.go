package workspace

import "testing"

func TestGetPut(t *testing.T) {
	ws := Get()
	if ws == nil || ws.Inducer == nil {
		t.Fatal("Get returned an unusable workspace")
	}
	Put(ws)
	// The pool may or may not hand the same instance back; either way the
	// result must be usable.
	ws2 := Get()
	defer Put(ws2)
	if ws2 == nil || ws2.Inducer == nil {
		t.Fatal("second Get returned an unusable workspace")
	}
}

func TestDiffScratch(t *testing.T) {
	ws := &Workspace{}
	d := ws.DiffScratch(10)
	if len(d) != 10 {
		t.Fatalf("len = %d, want 10", len(d))
	}
	for i := range d {
		d[i] = i + 1
	}
	// Shrinking reuses the same backing and re-zeroes.
	d2 := ws.DiffScratch(4)
	if len(d2) != 4 {
		t.Fatalf("len = %d, want 4", len(d2))
	}
	for i, v := range d2 {
		if v != 0 {
			t.Fatalf("d2[%d] = %d, want 0 (stale scratch leaked through)", i, v)
		}
	}
	// Growing past capacity allocates fresh, also zeroed.
	d3 := ws.DiffScratch(64)
	if len(d3) != 64 {
		t.Fatalf("len = %d, want 64", len(d3))
	}
	for i, v := range d3 {
		if v != 0 {
			t.Fatalf("d3[%d] = %d, want 0", i, v)
		}
	}
}

// TestBodyPoolCap checks that a body buffer grown past MaxPooledBody is
// dropped rather than pooled, and that pooled buffers come back empty.
func TestBodyPoolCap(t *testing.T) {
	for i := 0; i < 8; i++ {
		big := GetBody()
		big.Buf = make([]byte, MaxPooledBody+1)
		PutBody(big)
		b := GetBody()
		if cap(b.Buf) > MaxPooledBody {
			t.Fatalf("GetBody returned a %d-byte buffer, over the %d-byte cap", cap(b.Buf), MaxPooledBody)
		}
		if len(b.Buf) != 0 {
			t.Fatalf("GetBody returned %d stale bytes", len(b.Buf))
		}
		b.Buf = append(b.Buf, "body"...)
		PutBody(b)
	}
}

// TestVisitScratch checks the visit table's epoch contract: every call
// yields an epoch no entry holds, growth keeps that true, and a uint32
// wraparound clears the whole backing array — including entries past the
// current length — before the epoch restarts at 1.
func TestVisitScratch(t *testing.T) {
	k := &Kernel{}
	v, e := k.VisitScratch(8)
	for i := range v {
		v[i] = e
	}
	v, e2 := k.VisitScratch(4)
	if e2 == e {
		t.Fatalf("epoch %d reused", e2)
	}
	for i, m := range v {
		if m == e2 {
			t.Fatalf("entry %d already marked with the fresh epoch", i)
		}
	}
	k.VisitEpoch = ^uint32(0)
	v, e3 := k.VisitScratch(4)
	if e3 != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", e3)
	}
	for i, m := range v[:cap(v)] {
		if m != 0 {
			t.Fatalf("entry %d = %d after wraparound, want 0", i, m)
		}
	}
	if v, _ = k.VisitScratch(100); len(v) != 100 {
		t.Fatalf("len = %d, want 100", len(v))
	}
}
