// Instance validation through the shared validation driver (package
// validate): one schema's compiled models (and their lazily built engines)
// are shared by every worker — engines are immutable after construction —
// while all per-document state lives in a per-worker DocState whose frame
// stack is reused from document to document. Frames hold their match.Stream
// / numeric stream state by value, and popped frames keep their grown
// buffers for the next element at that depth, so validating the next
// document costs XML decoding plus stream feeding: O(1) state per open
// element for plain models, the live configuration set (a singleton, for
// deterministic models) for counted ones.
package xsd

import (
	"io"

	"dregex/internal/validate"
)

// ValidationError describes one violation found while validating a
// document.
type ValidationError = validate.ValidationError

// Doc is one in-memory document to validate.
type Doc = validate.Doc

// Result is the validation outcome for one document.
type Result = validate.Result

// Validator validates many documents concurrently against one schema. A
// Validator is safe for concurrent use and may be reused.
type Validator = validate.Validator

// DocState is the reusable per-worker scratch of a validation pass, for
// long-running callers (the dregexd server pools these per schema). A zero
// value is ready. Popped frames keep pointers into the schema's counter
// engines, so pool DocStates per schema — dropping the schema drops its
// pool — rather than sharing one pool across hot-swapped schemas.
type DocState = validate.DocState

// NewValidator returns a pool validating against s with the given number
// of workers (≤ 0 selects GOMAXPROCS).
func NewValidator(s *Schema, workers int) *Validator {
	return validate.NewValidator(&s.schema, workers)
}

// Validate checks one XML document against the schema: there must be
// exactly one root element and it must be globally declared, every
// element's children sequence must match its type's content model
// (evaluated with a streaming simulator — one pass, no buffering of child
// lists), xs:all members must each appear at most once with required ones
// present, and text content must be allowed (simple or mixed content). It
// returns all violations found, or nil.
func (s *Schema) Validate(r io.Reader) ([]ValidationError, error) {
	return s.schema.ValidateReusing(r, new(DocState))
}

// ValidateBytes is Validate on an in-memory document, skipping the read.
func (s *Schema) ValidateBytes(doc []byte) ([]ValidationError, error) {
	return s.schema.ValidateBytesReusing(doc, new(DocState))
}

// ValidateReusing is Validate with caller-managed scratch: reusing one
// DocState across documents keeps the element stack's capacity and every
// frame's grown stream buffers. A DocState must not be used concurrently.
func (s *Schema) ValidateReusing(r io.Reader, st *DocState) ([]ValidationError, error) {
	return s.schema.ValidateReusing(r, st)
}

// ValidateBytesReusing is ValidateBytes with caller-managed scratch.
func (s *Schema) ValidateBytesReusing(doc []byte, st *DocState) ([]ValidationError, error) {
	return s.schema.ValidateBytesReusing(doc, st)
}
