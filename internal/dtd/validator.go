// Validator: corpus-scale concurrent validation through the shared
// validation driver (package validate). One DTD's compiled content models
// (and their lazily built engines) are shared by every worker — engines
// are immutable after construction and engine builds are guarded by
// sync.Once — while all per-document state lives in a per-worker DocState
// reused from document to document.
package dtd

import (
	"dregex"
	"dregex/internal/validate"
)

// Validator validates many documents concurrently against one DTD (or,
// in standalone mode, against each document's own internal DTD subset).
// A Validator is safe for concurrent use and may be reused.
type Validator = validate.Validator

// Doc is one in-memory document to validate.
type Doc = validate.Doc

// Result is the validation outcome for one document. In standalone mode a
// missing or unparsable internal subset is the document's Err.
type Result = validate.Result

// NewValidator returns a pool validating against d with the given number
// of workers (≤ 0 selects GOMAXPROCS).
func NewValidator(d *DTD, workers int) *Validator {
	return validate.NewValidator(&d.schema, workers)
}

// NewStandaloneValidator returns a pool that validates each document
// against the internal DTD subset of its own DOCTYPE. Content models
// compile through cache (nil selects the shared package cache), so models
// repeated across the corpus — the common case in the wild — compile once
// however many documents carry them.
func NewStandaloneValidator(cache *dregex.Cache, workers int) *Validator {
	return validate.NewPerDocValidator(func(doc []byte) (*validate.Schema, error) {
		d, err := DocumentDTD(doc, cache)
		if err != nil {
			return nil, err
		}
		return &d.schema, nil
	}, workers)
}
