package analytics

import (
	"math"
	"testing"

	"h2tap/internal/csr"
)

// triangle plus a tail: 0↔1↔2↔0 (directed cycle both ways), 3→0, 4 isolated.
func triangleCSR() *csr.CSR {
	return &csr.CSR{
		Off: []int64{0, 2, 4, 6, 7, 7},
		Col: []uint64{1, 2, 0, 2, 0, 1, 0},
		Val: []float64{1, 1, 1, 1, 1, 1, 1},
	}
}

func TestCDLPConvergesOnCommunities(t *testing.T) {
	// Two disjoint triangles: each converges to one community labeled by
	// its smallest member.
	c := &csr.CSR{
		Off: []int64{0, 2, 4, 6, 8, 10, 12},
		Col: []uint64{1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4},
		Val: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	}
	labels, st := CDLP(CSRGraph{c}, 10)
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[0] != 0 {
		t.Fatalf("first triangle labels = %v", labels[:3])
	}
	if labels[3] != labels[4] || labels[4] != labels[5] || labels[3] != 3 {
		t.Fatalf("second triangle labels = %v", labels[3:])
	}
	if st.Iterations != 10 || st.Edges == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCDLPIsolatedKeepsOwnLabel(t *testing.T) {
	labels, _ := CDLP(CSRGraph{triangleCSR()}, 5)
	if labels[4] != 4 {
		t.Fatalf("isolated vertex label = %d", labels[4])
	}
}

func TestLCCTriangle(t *testing.T) {
	coef, st := LCC(CSRGraph{triangleCSR()})
	// Vertices 0,1,2 form a complete directed triangle: every ordered
	// neighbor pair is connected → coefficient 1.
	for u := 0; u < 3; u++ {
		if math.Abs(coef[u]-1) > 1e-12 {
			t.Fatalf("triangle vertex %d coef = %v", u, coef[u])
		}
	}
	// Degree-1 vertex 3 and isolated 4: coefficient 0.
	if coef[3] != 0 || coef[4] != 0 {
		t.Fatalf("low-degree coefs = %v %v", coef[3], coef[4])
	}
	if st.Edges == 0 {
		t.Fatal("no probes counted")
	}
}

func TestLCCPartial(t *testing.T) {
	// 0→{1,2,3}; among neighbors only 1→2 exists: links=1 out of 3·2=6.
	c := &csr.CSR{
		Off: []int64{0, 3, 4, 4, 4},
		Col: []uint64{1, 2, 3, 2},
		Val: []float64{1, 1, 1, 1},
	}
	coef, _ := LCC(CSRGraph{c})
	if math.Abs(coef[0]-1.0/6.0) > 1e-12 {
		t.Fatalf("coef[0] = %v, want 1/6", coef[0])
	}
}

func TestGraphalyticsAgreeAcrossStructures(t *testing.T) {
	agreeAcrossViews(t, replicaViews(21, 200, 4), "cdlp", "lcc")
}

func TestLCCBounds(t *testing.T) {
	c := randomCSR(33, 150, 5)
	coef, _ := LCC(CSRGraph{c})
	for i, x := range coef {
		if x < 0 || x > 1 {
			t.Fatalf("coef[%d] = %v out of [0,1]", i, x)
		}
	}
}
