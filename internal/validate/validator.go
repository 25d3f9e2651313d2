package validate

import (
	"os"
	"runtime"

	"dregex/internal/pool"
	"dregex/internal/xmltok"
)

// Doc is one in-memory document to validate.
type Doc struct {
	Name string
	Data []byte
}

// Result is the validation outcome for one document.
type Result struct {
	Name string
	// Errors are the schema violations found; empty for a valid document.
	Errors []ValidationError
	// Err is a document-level failure: unreadable file, malformed XML, no
	// root element, or a schema the document itself failed to supply.
	Err error
}

// Valid reports whether the document was read, parsed and validated with
// no violations.
func (r Result) Valid() bool { return r.Err == nil && len(r.Errors) == 0 }

// Validator validates many documents concurrently. The compiled schema —
// its content models and their lazily built engines — is shared by every
// worker, while all per-document state lives in one DocState per worker,
// reused from document to document. A Validator is safe for concurrent use
// and may be reused.
type Validator struct {
	s *Schema
	// schemaOf, when set instead of s, derives each document's schema from
	// the document itself.
	schemaOf func(doc []byte) (*Schema, error)
	workers  int
}

// NewValidator returns a pool validating against s with the given number
// of workers (≤ 0 selects GOMAXPROCS).
func NewValidator(s *Schema, workers int) *Validator {
	return &Validator{s: s, workers: workerCount(workers)}
}

// NewPerDocValidator returns a pool that validates each document against
// the schema schemaOf derives from it (a DTD's standalone mode reads the
// document's internal subset); a schemaOf error is the document's Err.
func NewPerDocValidator(schemaOf func(doc []byte) (*Schema, error), workers int) *Validator {
	return &Validator{schemaOf: schemaOf, workers: workerCount(workers)}
}

func workerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ValidateDocs validates in-memory documents concurrently; results[i]
// corresponds to docs[i].
func (v *Validator) ValidateDocs(docs []Doc) []Result {
	results := make([]Result, len(docs))
	pool.RunWithStates(len(docs), v.workers, func(st *DocState, i int) {
		results[i] = v.validate(docs[i].Name, docs[i].Data, st)
	})
	return results
}

// ValidateFiles reads and validates the named files concurrently (file
// I/O happens on the workers too); results[i] corresponds to paths[i].
// Each file is read into its worker's reused buffer.
func (v *Validator) ValidateFiles(paths []string) []Result {
	results := make([]Result, len(paths))
	pool.RunWithStates(len(paths), v.workers, func(st *DocState, i int) {
		results[i] = v.validateFile(paths[i], st)
	})
	return results
}

func (v *Validator) validateFile(path string, st *DocState) Result {
	f, err := os.Open(path)
	if err != nil {
		return Result{Name: path, Err: err}
	}
	defer f.Close()
	if v.s != nil {
		errs, err := v.s.ValidateReusing(f, st)
		return Result{Name: path, Errors: errs, Err: err}
	}
	data, err := xmltok.ReadAll(f, st.buf)
	st.buf = data
	if err != nil {
		return Result{Name: path, Err: err}
	}
	res := v.validate(path, data, st)
	if cap(st.buf) > maxKeepBuf {
		st.buf = nil
	}
	return res
}

func (v *Validator) validate(name string, data []byte, st *DocState) Result {
	s := v.s
	if s == nil {
		var err error
		if s, err = v.schemaOf(data); err != nil {
			return Result{Name: name, Err: err}
		}
	}
	errs, err := s.ValidateBytesReusing(data, st)
	return Result{Name: name, Errors: errs, Err: err}
}
