package validate_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dregex/internal/validate"
)

// TestValidateDepthBound: a document nested MaxDepth deep validates, one
// level deeper fails with ErrDepth, and a 1 MiB body of open tags fails
// at the bound instead of growing a frame per tag.
func TestValidateDepthBound(t *testing.T) {
	d := mustDTD(t, "<!ELEMENT a ANY>")
	nest := func(n int) []byte {
		return append(bytes.Repeat([]byte("<a>"), n), bytes.Repeat([]byte("</a>"), n)...)
	}
	if errs, err := d.ValidateBytes(nest(validate.MaxDepth)); err != nil || len(errs) != 0 {
		t.Fatalf("%d-deep document: errs=%v err=%v", validate.MaxDepth, errs, err)
	}
	if _, err := d.ValidateBytes(nest(validate.MaxDepth + 1)); !errors.Is(err, validate.ErrDepth) {
		t.Fatalf("%d-deep document: err=%v, want ErrDepth", validate.MaxDepth+1, err)
	}

	doc := bytes.Repeat([]byte("<a>"), 1<<20/3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := d.ValidateBytes(doc)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, validate.ErrDepth) {
		t.Fatalf("1 MiB of <a>: err=%v, want ErrDepth", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Errorf("1 MiB of <a> allocated %d bytes before failing, want under 2 MiB", alloc)
	}
}
