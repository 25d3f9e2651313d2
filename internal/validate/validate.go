// Package validate is the one document pass behind both schema languages:
// the paper's validator, a single left-to-right scan of the document that
// keeps O(1) matcher state per open element — a position for plain content
// models, the §3.3 counter configuration for counted ones.
//
// Package dtd and package xsd are schema compilers. At parse time each
// describes every element's content as a Content, declares it in a Schema
// and binds it (Schema.Bind); beyond that they supply only what differs
// between the two languages: the DOCTYPE rule, entities and (DTDs only)
// attribute checks. Everything else — the xmltok loop with its
// cancellation checkpoint, the frame stack, name resolution, content
// dispatch, line:col stamping with expected-next hints, the one-root rule,
// and the reusable per-worker scratch — lives here once.
//
// Names resolve once per start tag. Every element name a schema declares
// or its models mention is interned at compile time into a schema-wide id
// by one seeded, open-addressed name table over a single name arena. Each
// content with element children gets an id-keyed table of the same shape,
// built from its model's alphabet (and, in XSD, its declared children),
// that maps the id to a member: the model's local symbol for Children
// content, membership for Mixed content, the group member for All
// content, and in XSD the child's Content too. The driver hashes a start
// tag's name once, feeds the parent's stream the member's symbol with
// Feed, takes the child's content from the same id, and hands the id to
// the ATTLIST hook. Memory stays O(names + Σσ) per schema: no table is
// indexed by names × models. The tables live in the schema, so compiled
// expressions stay shared across schemas through the Cache.
//
// The per-element path allocates nothing in steady state: frames are
// reused in place (a frame holds a numeric.Stream by value, so pushing by
// copy would move a few hundred bytes per start tag), the streams are
// called directly rather than through run.Runner, and violation paths are
// only rendered when a violation is reported.
package validate

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"dregex"
	"dregex/client"
	"dregex/internal/ast"
	"dregex/internal/match"
	"dregex/internal/numeric"
	"dregex/internal/run"
	"dregex/internal/xmltok"
)

// ValidationError describes one violation found while validating a
// document; it is the wire type dregexd returns.
type ValidationError = client.ValidationError

// Kind classifies an element's content.
type Kind uint8

// Content kinds.
const (
	// Empty admits no child elements.
	Empty Kind = iota
	// Any admits any children and text, unchecked.
	Any
	// Simple is character data only (XSD simple content).
	Simple
	// Mixed is a DTD mixed model: text plus the child names listed when
	// the content was bound, in any order.
	Mixed
	// Children is a content model over child names, matched by
	// Content.Plain or Content.Counter.
	Children
	// All is an XSD xs:all group (Content.All).
	All
)

// Content describes the content of one element (a DTD element
// declaration, an XSD type). Schema compilers fill it in at parse time and
// bind it to their schema (Schema.Bind); it is immutable afterwards and
// shared by every pass.
type Content struct {
	Kind Kind
	// Model is the content model text quoted in messages.
	Model string
	// Text admits non-blank character data in Empty, Children and All
	// content (XSD mixed="true"); Any, Simple and Mixed content always
	// admit it.
	Text bool
	// Plain or Counter matches a Children model: a §4 engine, or the §3.3
	// counter engine. Both nil means the model is nondeterministic and
	// cannot be validated.
	Plain   *dregex.Matcher
	Counter *dregex.NumericMatcher
	// All describes an All group.
	All *AllGroup

	// kids maps the schema id of each child name this content admits to
	// its member index m. Members are the model's alphabet in symbol order
	// (Children: member m < nsym is symbol ast.FirstUser+m) or the All
	// group's members in order, then the names given to Bind.
	kids idTable
	nsym int32
	// elems[m] is member m's declared content in a scoped schema (XSD).
	elems []*Content
}

// AllGroup is an xs:all group: each member at most once, in any order.
type AllGroup struct {
	Names []string
	// Required marks the members that must appear.
	Required []bool
	// Optional is minOccurs=0 on the group itself: content with no member
	// at all is valid too.
	Optional bool
}

// Schema is a compiled schema as the driver sees it. Validating through
// it is safe for concurrent use; each goroutine brings its own DocState.
type Schema struct {
	// Lang prefixes document-level errors ("dtd", "xsd").
	Lang string
	// Entities are the general entities references resolve against.
	Entities map[string]string
	// Doctype, when set, handles a DOCTYPE directive seen before the
	// document element. It returns the name the document element must
	// carry (empty: no constraint) and the entities to resolve against
	// from then on (nil: keep Entities).
	Doctype func(directive string) (root string, ents map[string]string)
	// Attrs, when set, checks the attributes of each start tag. It runs
	// once the element's frame is open, so DocState.Reportf, ID and Ref
	// apply to that element; id is the element name's schema id (-1: a
	// name the schema never mentions) and declared reports whether it
	// resolved to a Content.
	Attrs func(st *DocState, tok *xmltok.Tokenizer, id int32, off int, declared bool)

	// names interns every element name the schema declares, its models
	// mention, or its compiler asked for (Intern).
	names nameTable
	// global, set by Declare, is a DTD's single namespace: every element
	// at any depth resolves through global[id], an undeclared element is
	// reported and its subtree is still validated, and names match as
	// written, prefix included (DTDs know nothing of namespaces).
	// Otherwise (global nil) declarations are XSD's, scoped and matched by
	// local name: the document element resolves through top's members (the
	// global element declarations, DeclareRoots) and every other element
	// through its parent's; a child its parent does not declare violates
	// the parent's model, and its subtree goes unchecked.
	global []*Content
	top    Content
}

// Intern returns the schema id of an element name, adding it when new.
// Compilers call it (and Declare, DeclareRoots, Bind) while building the
// schema, never once it is shared.
func (s *Schema) Intern(name string) int32 {
	id, _ := s.names.intern([]byte(name))
	return id
}

// Grow reserves room for n element names in all, when a compiler can
// count them before interning, so building the schema does not regrow
// its tables.
func (s *Schema) Grow(n int) {
	s.names.reserve(n)
	if n > len(s.global) {
		s.global = slices.Grow(s.global, n-len(s.global))
	}
}

// Declare records c as the content of the element named name in a schema
// with one namespace (a DTD).
func (s *Schema) Declare(name string, c *Content) {
	id := s.Intern(name)
	if n := int(id) + 1; n > len(s.global) {
		s.global = append(s.global, make([]*Content, n-len(s.global))...)
	}
	s.global[id] = c
}

// DeclareRoots records the global element declarations of a scoped schema
// (XSD), the valid document elements: roots[i] is the content of
// names[i].
func (s *Schema) DeclareRoots(names []string, roots []*Content) {
	s.Bind(&s.top, names, roots)
}

// Bind builds c's child-name table: the members are c's model alphabet in
// symbol order (Children content with an engine) or its All group's
// members in order, followed by names — a Mixed model's listed names, or
// in a scoped schema the children c declares. In a scoped schema scope[i]
// is the declared content of names[i] (scope is nil in a DTD, whose
// children resolve through Declare). Every name is interned. Bind runs
// once per content, after the content's own fields are set.
func (s *Schema) Bind(c *Content, names []string, scope []*Content) {
	alpha, base := c.alphabet(), 0
	switch {
	case alpha != nil:
		base = alpha.UserSize()
		c.nsym = int32(base)
	case c.All != nil:
		base = len(c.All.Names)
	}
	c.kids.init(base + len(names))
	for m := 0; m < base; m++ {
		var name string
		if alpha != nil {
			name = alpha.Name(ast.FirstUser + ast.Symbol(m))
		} else {
			name = c.All.Names[m]
		}
		c.kids.put(s.Intern(name), int32(m))
	}
	if scope != nil {
		c.elems = make([]*Content, base, base+len(names))
	}
	n := int32(base)
	for i, name := range names {
		m := c.kids.put(s.Intern(name), n)
		if m == n {
			n++
			if scope != nil {
				c.elems = append(c.elems, nil)
			}
		}
		if scope != nil {
			c.elems[m] = scope[i]
		}
	}
}

// alphabet returns the symbol alphabet of c's engine (nil without one).
func (c *Content) alphabet() *ast.Alphabet {
	switch {
	case c.Kind != Children:
	case c.Plain != nil:
		var s match.Stream
		if c.Plain.InitStream(&s) {
			return s.Alphabet()
		}
	case c.Counter != nil:
		return c.Counter.Alphabet()
	}
	return nil
}

// resolve returns the content of the element with schema id id, member m
// of its parent's content p (nil: the document element or an undeclared
// parent). It returns nil for an undeclared element.
func (s *Schema) resolve(p *Content, m, id int32) *Content {
	if s.global != nil {
		if uint32(id) < uint32(len(s.global)) {
			return s.global[id]
		}
		return nil
	}
	if p == nil || m < 0 || int(m) >= len(p.elems) {
		return nil
	}
	return p.elems[m]
}

// frame is the per-open-element state of a pass. The name aliases the
// document buffer: no per-element string is materialized.
type frame struct {
	c      *Content // nil: undeclared
	name   []byte
	plain  match.Stream   // Children with Plain
	ctrs   numeric.Stream // Children with Counter; buffers reused per slot
	seen   []bool         // All: member presence
	any    bool           // All: some member seen
	failed bool           // a violation was reported; stop checking
	// path is the element's open-element path in DocState.refArena,
	// copied there by its first IDREF (hi == 0: not yet).
	path span
}

// runner is the frame's run as a run.Runner, for diagnostics only: the
// hot path calls the concrete streams directly.
func (f *frame) runner() run.Runner {
	if f.c.Counter != nil {
		return &f.ctrs
	}
	return &f.plain
}

// pendingRef is one IDREF occurrence awaiting document-end resolution
// (IDs may be declared after the references pointing at them). The value
// and the referencing element's path live in DocState.refArena: attribute
// values can sit in tokenizer scratch that the next token invalidates, and
// the element is closed by the time the reference resolves.
type pendingRef struct {
	val, path span
	off       int // byte offset of the referencing attribute
}

// span is a [lo,hi) byte range of DocState.refArena.
type span struct{ lo, hi int }

// MaxDepth bounds the elements a document may have open at once, as
// ast.MaxNesting bounds a content model's groups: a frame costs a few
// hundred bytes, so an unbounded stack would let a 4 MiB body of <a> tags
// allocate hundreds of MiB before the pass fails at its end.
const MaxDepth = 1000

// ErrDepth is wrapped by the document-level error of a pass that meets a
// start tag inside MaxDepth open elements.
var ErrDepth = errors.New("validate: elements nest more than 1000 deep")

// maxKeepBuf caps the document buffer a reused DocState retains between
// documents, so one huge outlier does not pin its memory forever.
const maxKeepBuf = 1 << 20

// DocState is the reusable per-worker scratch of a pass. A zero value is
// ready; reusing one across documents keeps the frame stack (with every
// frame's grown stream buffers), the tokenizer's buffers and the read
// buffer, so steady-state validation allocates nothing for plain and
// counter models. Between documents it keeps nothing that refers to the
// previous document or its content descriptions, except counter streams'
// compiled expressions: pool DocStates per XSD schema. A DocState must not
// be used concurrently.
type DocState struct {
	stack []frame
	// high is the deepest the stack has been since the last release:
	// frames beyond it hold no references.
	high int
	tok  xmltok.Tokenizer
	// buf holds the whole document when validating from an io.Reader.
	buf  []byte
	errs []ValidationError
	// ids collects the document's ID attribute values; refs/refArena the
	// IDREF occurrences to resolve once the document has been read.
	ids      nameTable
	refs     []pendingRef
	refArena []byte
	// symbols and docBytes meter the last validation for observability.
	// Plain ints — bumping them costs nothing on the 0-alloc hot path;
	// callers aggregate them into shared counters.
	symbols  int
	docBytes int
	// cp is the cooperative cancellation point probed once per token; it
	// stays disarmed (one branch per token) unless SetDeadline armed it.
	cp run.Checkpoint
}

// Symbols reports how many content-model symbols (child elements fed to
// the streaming engines, plain or counter) the last validation through
// this DocState consumed — the |w| of the paper's O(|e| + |w|·f) bound,
// for live ns-per-symbol estimates.
func (st *DocState) Symbols() int { return st.symbols }

// DocBytes reports the size of the last document validated through this
// DocState (the bytes the tokenizer scanned).
func (st *DocState) DocBytes() int { return st.docBytes }

// SetDeadline arms cooperative cancellation for subsequent validations
// through this DocState: the token loop aborts with an error satisfying
// errors.Is(err, run.ErrCanceled) once done closes, or
// run.ErrDeadlineExceeded once the absolute deadline passes. Both zero
// arguments disarm, which is also the zero DocState's behavior — the
// disarmed per-token cost is a single branch, so the 0-alloc validation
// path is undisturbed. The arming persists across documents until the
// next SetDeadline, so per-request callers must re-arm (or disarm) each
// time they check a state out of a pool.
func (st *DocState) SetDeadline(done <-chan struct{}, deadline time.Time) {
	st.cp.Arm(done, deadline)
}

// Reportf records a violation on the innermost open element, located at
// byte offset off of the document.
func (st *DocState) Reportf(off int, format string, args ...any) {
	f := &st.stack[len(st.stack)-1]
	st.errorAt(st.path(), f.name, off, fmt.Sprintf(format, args...))
}

// ID records an ID attribute value; it reports false when the document
// already used it. Values are copied into an arena and indexed by a table
// seeded per DocState, so a warm DocState records IDs without allocating.
//
//dregex:noalloc
func (st *DocState) ID(id []byte) bool {
	_, added := st.ids.intern(id)
	return added
}

// Ref queues an IDREF value of the innermost open element, from the
// attribute at byte offset off, for resolution at document end.
func (st *DocState) Ref(val []byte, off int) { queueRef(st, val, off) }

// RefString is Ref for a value the schema supplies (a defaulted IDREF).
func (st *DocState) RefString(val string, off int) { queueRef(st, val, off) }

// queueRef copies val, and on the element's first reference its path, into
// the reference arena: a warm DocState queues references without
// allocating.
func queueRef[S []byte | string](st *DocState, val S, off int) {
	f := &st.stack[len(st.stack)-1]
	if f.path.hi == 0 {
		f.path.lo = len(st.refArena)
		for i := range st.stack {
			st.refArena = append(st.refArena, '/')
			st.refArena = append(st.refArena, st.stack[i].name...)
		}
		f.path.hi = len(st.refArena)
	}
	lo := len(st.refArena)
	st.refArena = append(st.refArena, val...)
	st.refs = append(st.refs, pendingRef{span{lo, len(st.refArena)}, f.path, off})
}

// errorAt records a violation with the document position of offset off.
func (st *DocState) errorAt(path string, elem []byte, off int, msg string) *ValidationError {
	line, col := st.tok.Position(off)
	st.errs = append(st.errs, ValidationError{Path: path, Element: string(elem), Msg: msg, Line: line, Col: col})
	return &st.errs[len(st.errs)-1]
}

// fail reports a violation on frame f (the innermost open element) and
// stops checking its content.
func (st *DocState) fail(f *frame, off int, format string, args ...any) *ValidationError {
	f.failed = true
	return st.errorAt(st.path(), f.name, off, fmt.Sprintf(format, args...))
}

// path renders the open-element stack as a slash-separated path.
func (st *DocState) path() string {
	var b []byte
	for i := range st.stack {
		b = append(b, '/')
		b = append(b, st.stack[i].name...)
	}
	return string(b)
}

// push opens a frame for an element, reusing the slot's buffers when the
// stack has been this deep before.
func (st *DocState) push(c *Content, name []byte) *frame {
	if len(st.stack) < cap(st.stack) {
		st.stack = st.stack[:len(st.stack)+1]
	} else {
		st.stack = append(st.stack, frame{})
	}
	if len(st.stack) > st.high {
		st.high = len(st.stack)
	}
	f := &st.stack[len(st.stack)-1]
	// name is a Name() span into the stable document buffer (never
	// tokenizer scratch); release clears it before the next document.
	f.c, f.name, f.failed, f.path = c, name, false, span{}
	return f
}

// release ends a pass: it drops the error list (now the caller's) and
// every reference to the document or its content descriptions, keeping
// only grown buffers — a pooled state must not keep an earlier document's
// schema alive (a DTD read from the document itself, say) or its bytes.
func (st *DocState) release() {
	st.errs = nil
	used := st.stack[:st.high]
	for i := range used {
		used[i].c, used[i].name, used[i].plain = nil, nil, match.Stream{}
	}
	st.stack, st.high = st.stack[:0], 0
	st.tok.Reset(nil)
	clear(st.refs)
	st.refs, st.refArena = st.refs[:0], st.refArena[:0]
	st.ids.reset()
}

// ValidateReusing reads a document from r and validates it: every element
// must be declared, its children sequence must match its content model
// (evaluated with a streaming simulator — one pass, no buffering of child
// lists), text must be allowed where it appears, attributes must satisfy
// Attrs, and the document must have exactly one root element. It returns
// all violations found, or nil; the error is a document-level failure
// (unreadable or malformed XML, no root, an aborted run). Reusing one
// DocState across documents keeps every internal buffer.
func (s *Schema) ValidateReusing(r io.Reader, st *DocState) ([]ValidationError, error) {
	data, err := xmltok.ReadAll(r, st.buf)
	st.buf = data
	if err != nil {
		return nil, fmt.Errorf("%s: read: %w", s.Lang, err)
	}
	errs, verr := s.ValidateBytesReusing(data, st)
	if cap(st.buf) > maxKeepBuf {
		st.buf = nil
	}
	return errs, verr
}

// ValidateBytesReusing is ValidateReusing on an in-memory document.
func (s *Schema) ValidateBytesReusing(doc []byte, st *DocState) ([]ValidationError, error) {
	err := s.pass(doc, st)
	errs := st.errs
	st.release()
	return errs, err
}

func (s *Schema) pass(data []byte, st *DocState) error {
	tok := &st.tok
	tok.Reset(data)
	// A nil or empty map adds nothing; predefined entities always resolve.
	tok.SetEntities(s.Entities)
	st.symbols, st.docBytes = 0, len(data)
	doctype := ""
	sawRoot := false
	for {
		if err := st.cp.Check(); err != nil {
			return fmt.Errorf("%s: validation aborted: %w", s.Lang, err)
		}
		kind, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: malformed XML: %w", s.Lang, err)
		}
		switch kind {
		case xmltok.Directive:
			if !sawRoot && s.Doctype != nil {
				root, ents := s.Doctype(string(tok.Text()))
				if root != "" {
					doctype = root
				}
				if ents != nil {
					tok.SetEntities(ents)
				}
			}
		case xmltok.StartElement:
			if len(st.stack) == MaxDepth {
				line, col := tok.Position(tok.Offset())
				return fmt.Errorf("%s: %w (at %d:%d)", s.Lang, ErrDepth, line, col)
			}
			var name []byte
			if s.global != nil {
				name = tok.Name()
			} else {
				name = tok.Local()
			}
			id := s.names.lookup(name)
			off := tok.Offset()
			var c *Content
			if len(st.stack) == 0 {
				if sawRoot {
					// A second top-level element is not well-formed XML;
					// report it, then skip its subtree.
					st.errorAt("/"+string(name), name, off, "document has more than one root element")
					for tok.Depth() > 0 {
						if _, err := tok.Next(); err != nil {
							return fmt.Errorf("%s: malformed XML: %w", s.Lang, err)
						}
					}
					continue
				}
				sawRoot = true
				c = s.resolve(&s.top, s.top.kids.get(id), id)
			} else {
				p := &st.stack[len(st.stack)-1]
				m := int32(-1)
				if p.c != nil {
					m = p.c.kids.get(id)
					if !p.failed {
						st.feed(p, m, name, off)
					}
				}
				c = s.resolve(p.c, m, id)
			}
			f := st.push(c, name)
			if doctype != "" && len(st.stack) == 1 && string(name) != doctype {
				st.Reportf(off, "root element <%s> does not match DOCTYPE %s", name, doctype)
			}
			switch {
			case c == nil && s.global != nil:
				st.Reportf(off, "element not declared")
			case c == nil && len(st.stack) == 1:
				st.Reportf(off, "root element is not declared in the schema")
			case c == nil:
			case c.Kind == Children:
				switch {
				case c.Plain != nil:
					c.Plain.InitStream(&f.plain)
				case c.Counter != nil:
					c.Counter.InitStream(&f.ctrs)
				default:
					st.fail(f, off, "content model is nondeterministic; cannot validate")
				}
			case c.Kind == All:
				n := len(c.All.Names)
				if cap(f.seen) < n {
					f.seen = make([]bool, n)
				} else {
					f.seen = f.seen[:n]
					clear(f.seen)
				}
				f.any = false
			}
			if s.Attrs != nil {
				s.Attrs(st, tok, id, off, c != nil)
			}
		case xmltok.EndElement:
			if len(st.stack) == 0 {
				continue // stray end tag past a skipped extra root
			}
			f := &st.stack[len(st.stack)-1]
			if f.c != nil && !f.failed {
				st.end(f, tok.Offset())
			}
			st.stack = st.stack[:len(st.stack)-1]
		case xmltok.Text:
			if len(st.stack) == 0 {
				continue
			}
			f := &st.stack[len(st.stack)-1]
			if f.c == nil || f.failed || f.c.Text {
				continue
			}
			switch f.c.Kind {
			case Empty, Children, All:
				if !blank(tok.Text()) {
					st.fail(f, tok.Offset(), "text content not allowed")
				}
			}
		}
	}
	if !sawRoot {
		return fmt.Errorf("%s: document has no root element", s.Lang)
	}
	// IDs can be declared after the IDREFs pointing at them, so resolution
	// waits until the whole document has been read.
	for _, ref := range st.refs {
		val := st.refArena[ref.val.lo:ref.val.hi]
		if st.ids.lookup(val) < 0 {
			path := st.refArena[ref.path.lo:ref.path.hi]
			elem := path[bytes.LastIndexByte(path, '/')+1:]
			st.errorAt(string(path), elem, ref.off,
				fmt.Sprintf("IDREF %q matches no ID in the document", val))
		}
	}
	return nil
}

// feed records child name, member m of the open frame p's content (-1:
// not admitted), in that content.
func (st *DocState) feed(p *frame, m int32, name []byte, off int) {
	c := p.c
	switch c.Kind {
	case Empty:
		st.fail(p, off, "EMPTY element has child <%s>", name)
	case Simple:
		st.fail(p, off, "child <%s> not allowed: simple content", name)
	case Mixed:
		if m < 0 {
			st.fail(p, off, "child <%s> not allowed in mixed model %s", name, c.Model)
		}
	case Children:
		st.symbols++
		a := ast.None // not in the model's alphabet: the run dies
		if uint32(m) < uint32(c.nsym) {
			a = ast.FirstUser + ast.Symbol(m)
		}
		var ok bool
		if c.Counter != nil {
			ok = p.ctrs.Feed(a)
		} else {
			ok = p.plain.Feed(a)
		}
		if !ok {
			ve := st.fail(p, off, "child <%s> violates content model %s", name, c.Model)
			ve.Expected = run.ExpectedNames(p.runner(), nil)
		}
	case All:
		switch {
		case uint32(m) >= uint32(len(c.All.Names)):
			st.fail(p, off, "child <%s> not allowed in %s", name, c.Model)
		case p.seen[m]:
			st.fail(p, off, "child <%s> repeated in %s", name, c.Model)
		default:
			p.seen[m] = true
			p.any = true
		}
	}
}

// end checks that the content of frame f — the innermost open element,
// closing at byte offset off — is complete.
func (st *DocState) end(f *frame, off int) {
	c := f.c
	switch c.Kind {
	case Children:
		var ok bool
		if c.Counter != nil {
			ok = f.ctrs.Accepts()
		} else {
			ok = f.plain.Accepts()
		}
		if !ok {
			ve := st.fail(f, off, "children end prematurely for content model %s", c.Model)
			ve.Expected = run.ExpectedNames(f.runner(), nil)
		}
	case All:
		if c.All.Optional && !f.any {
			return
		}
		for i, req := range c.All.Required {
			if req && !f.seen[i] {
				st.Reportf(off, "missing required child <%s> of %s", c.All.Names[i], c.Model)
			}
		}
	}
}

// blank reports whether text is all XML white space (S: #x20, #x9, #xD,
// #xA). Other Unicode spaces, U+00A0 and U+0085 among them, are character
// data.
func blank(text []byte) bool {
	for _, b := range text {
		if b != ' ' && b != '\t' && b != '\n' && b != '\r' {
			return false
		}
	}
	return true
}
