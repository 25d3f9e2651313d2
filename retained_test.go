package dregex

import (
	"math/rand"
	"runtime"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/wordgen"
)

// maxRetainedBytesPerNode bounds the live heap a compiled Expr keeps per
// parse-tree node before any engine is built: the tree's parallel slices,
// the LCA index, the alphabet and the verdict, about 95 B on this corpus.
// Keeping the compile-time skeleta and normalized AST as well, with an
// Euler-tour LCA, costs about 232 B.
const maxRetainedBytesPerNode = 128

func TestRetainedBytesPerNode(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	sources := make([]string, 256)
	for i := range sources {
		alpha := ast.NewAlphabet()
		maxNodes := 8 << r.Intn(10)
		e := wordgen.RandomDeterministicExpr(r, alpha, maxNodes, maxNodes, false)
		sources[i] = ast.StringDTD(e, alpha)
	}
	exprs := make([]*Expr, len(sources))
	before := liveHeap()
	for i, src := range sources {
		e, err := Compile(src, DTD)
		if err != nil {
			t.Fatalf("Compile(%.40q…): %v", src, err)
		}
		exprs[i] = e
	}
	after := liveHeap()
	nodes := 0
	for _, e := range exprs {
		nodes += e.Stats().Size
	}
	runtime.KeepAlive(exprs)
	perNode := float64(after-before) / float64(nodes)
	t.Logf("%d expressions, %d nodes, %.1f retained B/node", len(exprs), nodes, perNode)
	if perNode > maxRetainedBytesPerNode {
		t.Errorf("compiled expressions retain %.1f B per node, want ≤ %d", perNode, maxRetainedBytesPerNode)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
