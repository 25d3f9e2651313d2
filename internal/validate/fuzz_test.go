package validate_test

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dregex"
	"dregex/internal/ast"
	"dregex/internal/dtd"
	"dregex/internal/follow"
	"dregex/internal/glushkov"
	"dregex/internal/numeric"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
	"dregex/internal/words"
	"dregex/internal/xsd"
)

// FuzzValidateDoc is the document-level differential oracle: a small
// schema spec and a document are drawn from the fuzz input, the spec is
// rendered as a DTD (and, when it fits XSD's rules here, as an XSD), and
// the validators' verdicts are checked against a slow reference that reads
// the document with encoding/xml and simulates every element's Glushkov
// automaton by position sets on names — no determinism, no table, no ids.
// The paths of all violations must agree, in order.
//
// shape selects the spec: bits 0–2 the number of declared elements (2–9),
// bit 3 prefixed names, bit 4 models that mention undeclared names, bit 5
// Mixed content, bits 6–8 the number of mutations, bit 9 CHARE models in
// place of random 1-OREs, bit 10 small {m,n} counters on chain factors.
//
// With counters the XSD keeps them as minOccurs/maxOccurs, so its models
// run on the counter engine, while the DTD and the reference take the
// canonical unrolling (ast.Unroll): one document is judged on the table
// tier, on the counter engine and by the reference. A spec whose counted
// model is nondeterministic is skipped (TestCounterSpecsChecked bounds how
// many are).
func FuzzValidateDoc(f *testing.F) {
	for _, c := range []struct {
		seed  int64
		shape uint16
	}{
		{1, 0}, {2, 3}, {3, 7 | 1<<9}, {4, 5 | 1<<5}, {5, 6 | 3<<6},
		{6, 4 | 1<<4 | 2<<6}, {7, 7 | 1<<3}, {8, 2 | 1<<3 | 1<<5 | 1<<6},
		{9, 5 | 1<<9 | 1<<10}, {10, 7 | 2<<6 | 1<<9 | 1<<10}, {11, 6 | 1<<10},
		{12, 4 | 3<<6 | 1<<9 | 1<<10}, {13, 3 | 1<<3 | 1<<6 | 1<<10},
	} {
		f.Add(c.seed, c.shape)
	}
	cache := dregex.NewCache(256)
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		if ok, _ := checkSpec(t, cache, seed, shape); !ok {
			t.Skip("a counted model is nondeterministic")
		}
	})
}

// checkSpec draws the spec and document of (seed, shape) and checks the
// validators against the reference. It reports false, checking nothing,
// for a spec with a nondeterministic counted model, and returns the XSD
// it checked (nil when the spec has none).
func checkSpec(t *testing.T, cache *dregex.Cache, seed int64, shape uint16) (bool, *xsd.Schema) {
	r := rand.New(rand.NewSource(seed))
	sp := newSpec(r, shape)
	if sp.nondet {
		return false, nil
	}
	doc := sp.document(r, int(shape>>6&7))
	d, err := dtd.ParseWithCache(sp.dtd(), cache)
	if err != nil {
		t.Fatalf("spec DTD does not parse: %v\n%s", err, sp.dtd())
	}
	errs, err := d.ValidateBytes(doc)
	agree(t, "dtd", sp.dtd(), doc, errs, err, sp.judge(doc, true))
	if !sp.xsdOK() {
		return true, nil
	}
	s, err := xsd.ParseWithCache([]byte(sp.xsd()), cache)
	if err != nil {
		t.Fatalf("spec XSD does not parse: %v\n%s", err, sp.xsd())
	}
	errs, err = s.ValidateBytes(doc)
	agree(t, "xsd", sp.xsd(), doc, errs, err, sp.judge(doc, false))
	return true, s
}

// TestCounterSpecsChecked runs the oracle over 400 counter specs: most
// must be checked, not skipped as nondeterministic, and most of those
// must put an XSD model on the counter engine.
func TestCounterSpecsChecked(t *testing.T) {
	cache := dregex.NewCache(256)
	const n = 400
	checked, counted := 0, 0
	for seed := int64(1); seed <= n; seed++ {
		shape := uint16(seed%8) | uint16(seed/8%4)<<6 | uint16(seed%2)<<9 | 1<<10
		ok, s := checkSpec(t, cache, seed, shape)
		if !ok {
			continue
		}
		checked++
		if s != nil && slices.ContainsFunc(s.AllTypes, func(ty *xsd.Type) bool { return ty.Numeric }) {
			counted++
		}
	}
	if checked <= n/2 || counted <= checked/2 {
		t.Fatalf("of %d counter specs %d were checked, %d of them on the counter engine", n, checked, counted)
	}
}

// agree fails unless the validator's violations are at the reference's
// error paths, in order (none for a valid document).
func agree(t *testing.T, lang, schema string, doc []byte, errs []dtd.ValidationError, err error, want []string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: document-level error %v\nschema:\n%s\ndoc: %s", lang, err, schema, doc)
	}
	var got []string
	for _, e := range errs {
		got = append(got, e.Path)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: validator errors at %q (%v), reference %q\nschema:\n%s\ndoc: %s",
			lang, got, errs, want, schema, doc)
	}
}

// Element kinds of a spec.
const (
	kChildren = iota
	kMixed
	kEmpty
	kAny
)

type elemSpec struct {
	name  string
	kind  int
	model *ast.Node // kChildren, over spec.alpha
	// plain is model with its {m,n} counters unrolled (model itself when
	// it has none): the DTD's model and the reference's.
	plain *ast.Node
	mixed []string // kMixed
	// The reference automaton and the follow index words are drawn from.
	auto *glushkov.Automaton
	fol  *follow.Index
}

type spec struct {
	alpha  *ast.Alphabet // every name the spec uses
	elems  []*elemSpec
	byName map[string]*elemSpec
	// pool is the names models may mention: the declared ones, plus
	// undeclared ones when the shape asks for them.
	pool     []string
	prefixed bool
	// counters is shape bit 10; nondet reports a counted model that §3.3
	// finds nondeterministic.
	counters, nondet bool
}

func newSpec(r *rand.Rand, shape uint16) *spec {
	sp := &spec{alpha: ast.NewAlphabet(), byName: map[string]*elemSpec{}}
	sp.counters = shape&(1<<10) != 0
	n := 2 + int(shape&7)
	sp.prefixed = shape&(1<<3) != 0
	name := func(base string) string {
		if sp.prefixed && r.Intn(2) == 0 {
			return []string{"x:", "y:"}[r.Intn(2)] + base
		}
		return base
	}
	for i := 0; i < n; i++ {
		e := &elemSpec{name: name(fmt.Sprintf("e%d", i))}
		sp.elems = append(sp.elems, e)
		sp.byName[e.name] = e
		sp.pool = append(sp.pool, e.name)
	}
	if shape&(1<<4) != 0 {
		sp.pool = append(sp.pool, name("u0"), name("u1"))
	}
	for _, p := range sp.pool {
		sp.alpha.Intern(p)
	}
	for _, e := range sp.elems {
		switch k := r.Intn(8); {
		case k < 5:
			e.kind = kChildren
			e.model = sp.model(r, shape&(1<<9) != 0)
			e.plain = e.model
			if sp.counters {
				e.model = counted(r, e.model)
				c, err := numeric.Compile(e.model, sp.alpha)
				if err != nil {
					panic(err)
				}
				sp.nondet = sp.nondet || !c.IsDeterministic()
				if e.plain, err = ast.Unroll(e.model, 1<<12); err != nil {
					panic(err)
				}
			}
			tr, err := parsetree.Build(ast.Normalize(ast.DesugarPlus(ast.Normalize(e.plain))), sp.alpha)
			if err != nil {
				panic(err)
			}
			e.auto, e.fol = glushkov.Build(tr), follow.New(tr)
		case k == 5 && shape&(1<<5) != 0:
			e.kind = kMixed
			for _, i := range r.Perm(len(sp.pool))[:r.Intn(min(3, len(sp.pool))+1)] {
				e.mixed = append(e.mixed, sp.pool[i])
			}
		case k == 7:
			e.kind = kAny
		default:
			e.kind = kEmpty
		}
	}
	return sp
}

// model draws a deterministic content model (a 1-ORE or a CHARE) over the
// name pool: the generator's symbols map injectively onto pool names, so
// the model stays one-occurrence.
func (sp *spec) model(r *rand.Rand, chare bool) *ast.Node {
	scratch := ast.NewAlphabet()
	var e *ast.Node
	if chare {
		e = wordgen.CHARE(r, scratch, 1+r.Intn(3), 2)
	}
	if e == nil || scratch.UserSize() > len(sp.pool) {
		scratch = ast.NewAlphabet()
		e = wordgen.RandomDeterministicExpr(r, scratch, 1+r.Intn(len(sp.pool)), 2+r.Intn(10), false)
	}
	perm := r.Perm(len(sp.pool))
	to := map[ast.Symbol]ast.Symbol{}
	var remap func(n *ast.Node) *ast.Node
	remap = func(n *ast.Node) *ast.Node {
		if n == nil {
			return nil
		}
		c := *n
		if c.Kind == ast.KSym {
			s, ok := to[c.Sym]
			if !ok {
				s = sp.alpha.Intern(sp.pool[perm[len(to)]])
				to[c.Sym] = s
			}
			c.Sym = s
		}
		c.L, c.R = remap(n.L), remap(n.R)
		return &c
	}
	return remap(e)
}

// counted gives the chain factors of e without a postfix operator small
// {m,n} bounds, two in five of them, as XSD minOccurs/maxOccurs would.
func counted(r *rand.Rand, e *ast.Node) *ast.Node {
	var parts []*ast.Node
	var flatten func(n *ast.Node)
	flatten = func(n *ast.Node) {
		if n.Kind == ast.KCat {
			flatten(n.L)
			flatten(n.R)
			return
		}
		parts = append(parts, n)
	}
	flatten(e)
	for i, f := range parts {
		switch f.Kind {
		case ast.KOpt, ast.KStar, ast.KIter:
			continue
		}
		if r.Intn(5) < 2 {
			lo := r.Intn(3)
			parts[i] = ast.Iter(f, lo, lo+2+r.Intn(5))
		}
	}
	return ast.CatAll(parts...)
}

func (sp *spec) dtd() string {
	var b strings.Builder
	for _, e := range sp.elems {
		fmt.Fprintf(&b, "<!ELEMENT %s ", e.name)
		switch e.kind {
		case kChildren:
			fmt.Fprintf(&b, "(%s)", ast.StringDTD(e.plain, sp.alpha))
		case kMixed:
			b.WriteString("(#PCDATA")
			for _, m := range e.mixed {
				b.WriteString("|" + m)
			}
			b.WriteString(")*")
		case kEmpty:
			b.WriteString("EMPTY")
		case kAny:
			b.WriteString("ANY")
		}
		b.WriteString(">\n")
	}
	return b.String()
}

// xsdOK reports whether the spec renders as an XSD with the same meaning:
// no prefixed or undeclared names, no Mixed content.
func (sp *spec) xsdOK() bool {
	for _, e := range sp.elems {
		if e.kind == kMixed || strings.Contains(e.name, ":") {
			return false
		}
		if e.kind == kChildren {
			ok := true
			ast.Walk(e.model, func(n *ast.Node) {
				if n.Kind == ast.KSym && sp.byName[sp.alpha.Name(n.Sym)] == nil {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
	}
	return true
}

// xsd renders the spec as global elements whose particles ref each other:
// Children as nested sequence/choice groups, Empty as an empty complex
// type, Any as an untyped element (xs:anyType).
func (sp *spec) xsd() string {
	var b strings.Builder
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">` + "\n")
	for _, e := range sp.elems {
		switch e.kind {
		case kChildren:
			fmt.Fprintf(&b, `<xs:element name="%s"><xs:complexType><xs:sequence>`, e.name)
			sp.particle(&b, e.model)
			b.WriteString("</xs:sequence></xs:complexType></xs:element>\n")
		case kEmpty:
			fmt.Fprintf(&b, `<xs:element name="%s"><xs:complexType/></xs:element>`+"\n", e.name)
		case kAny:
			fmt.Fprintf(&b, `<xs:element name="%s"/>`+"\n", e.name)
		}
	}
	b.WriteString("</xs:schema>\n")
	return b.String()
}

func (sp *spec) particle(b *strings.Builder, n *ast.Node) {
	group := func(tag, occurs string, kids ...*ast.Node) {
		fmt.Fprintf(b, "<xs:%s%s>", tag, occurs)
		for _, k := range kids {
			sp.particle(b, k)
		}
		fmt.Fprintf(b, "</xs:%s>", tag)
	}
	switch n.Kind {
	case ast.KSym:
		fmt.Fprintf(b, `<xs:element ref="%s"/>`, sp.alpha.Name(n.Sym))
	case ast.KCat:
		group("sequence", "", n.L, n.R)
	case ast.KUnion:
		group("choice", "", n.L, n.R)
	case ast.KOpt:
		group("sequence", ` minOccurs="0"`, n.L)
	case ast.KStar:
		group("sequence", ` minOccurs="0" maxOccurs="unbounded"`, n.L)
	case ast.KIter:
		max := "unbounded"
		if n.Max != ast.Unbounded {
			max = strconv.Itoa(n.Max)
		}
		group("sequence", fmt.Sprintf(` minOccurs="%d" maxOccurs="%s"`, n.Min, max), n.L)
	}
}

// node is one element of a generated document; items interleave child
// elements and text.
type node struct {
	name  string
	items []item
}

type item struct {
	el   *node
	text string
}

// document expands a tree from the spec's model words (words.RandomWord)
// under a random declared root, applies mutations, and serializes it.
func (sp *spec) document(r *rand.Rand, mutations int) []byte {
	budget := 60
	var all []*node
	var expand func(name string, depth int) *node
	expand = func(name string, depth int) *node {
		nd := &node{name: name}
		all = append(all, nd)
		e := sp.byName[name]
		if e == nil || depth >= 4 || budget <= 0 {
			return nd
		}
		var kids []string
		switch e.kind {
		case kChildren:
			maxLen, stop := 4, 0.3
			if sp.counters {
				maxLen, stop = 16, 0.1 // long enough to reach the bounds
			}
			w, ok := words.RandomWord(r, e.fol, maxLen, stop)
			if ok {
				for _, s := range w {
					kids = append(kids, sp.alpha.Name(s))
				}
			}
		case kMixed:
			for i := r.Intn(4); i > 0 && len(e.mixed) > 0; i-- {
				kids = append(kids, e.mixed[r.Intn(len(e.mixed))])
			}
		case kAny:
			for i := r.Intn(3); i > 0; i-- {
				kids = append(kids, sp.elems[r.Intn(len(sp.elems))].name)
			}
		}
		for _, k := range kids {
			budget--
			if e.kind == kMixed && r.Intn(2) == 0 {
				nd.items = append(nd.items, item{text: "t"})
			}
			nd.items = append(nd.items, item{el: expand(k, depth+1)})
			if r.Intn(3) == 0 {
				nd.items = append(nd.items, item{text: "\n "})
			}
		}
		return nd
	}
	root := expand(sp.elems[r.Intn(len(sp.elems))].name, 0)
	names := append(slices.Clone(sp.pool), "zz")
	for i := 0; i < mutations; i++ {
		nd := all[r.Intn(len(all))]
		k := len(nd.items)
		kinds := 5
		if sp.counters {
			kinds = 7
		}
		switch r.Intn(kinds) {
		case 0: // insert a child
			c := &node{name: names[r.Intn(len(names))]}
			all = append(all, c)
			nd.items = slices.Insert(nd.items, r.Intn(k+1), item{el: c})
		case 1: // delete a child
			if k > 0 {
				i := r.Intn(k)
				nd.items = slices.Delete(nd.items, i, i+1)
			}
		case 2: // swap two children
			if k > 1 {
				i, j := r.Intn(k), r.Intn(k)
				nd.items[i], nd.items[j] = nd.items[j], nd.items[i]
			}
		case 3: // rename the element
			nd.name = names[r.Intn(len(names))]
		case 4: // stray text
			nd.items = slices.Insert(nd.items, r.Intn(k+1), item{text: "stray"})
		case 5, 6: // repeat a child: a run at a counter's Max goes past it
			if k > 0 {
				i := r.Intn(k)
				if el := nd.items[i].el; el != nil {
					c := &node{name: el.name}
					all = append(all, c)
					nd.items = slices.Insert(nd.items, i+1, item{el: c})
				}
			}
		}
	}
	var b bytes.Buffer
	var write func(nd *node, top bool)
	write = func(nd *node, top bool) {
		b.WriteString("<" + nd.name)
		if top && sp.prefixed {
			b.WriteString(` xmlns:x="urn:x" xmlns:y="urn:y"`)
		}
		if len(nd.items) == 0 && r.Intn(2) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteString(">")
		for _, it := range nd.items {
			if it.el != nil {
				write(it.el, false)
			} else {
				b.WriteString(it.text)
			}
		}
		b.WriteString("</" + nd.name + ">")
	}
	write(root, true)
	return b.Bytes()
}

// refFrame is the reference's state for one open element.
type refFrame struct {
	name   string
	e      *elemSpec // nil: undeclared or unchecked
	cur    []parsetree.NodeID
	failed bool
}

// judge validates doc against the spec the slow way and returns the paths
// of its violations in document order (none when valid). flat selects the
// DTD's rules (one namespace, names as written); otherwise XSD's (scoped
// declarations, local names: a child resolves only through its parent's
// model, and the children of xs:anyType go unchecked). Like the
// validators, it stops checking an element's content at its first
// violation and goes on with the rest of the document.
func (sp *spec) judge(doc []byte, flat bool) []string {
	dec := xml.NewDecoder(bytes.NewReader(doc))
	var stack []*refFrame
	var errs []string
	report := func() {
		var b strings.Builder
		for _, f := range stack {
			b.WriteString("/" + f.name)
		}
		errs = append(errs, b.String())
	}
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			return errs
		}
		if err != nil {
			panic(fmt.Sprintf("generated document is malformed: %v\n%s", err, doc))
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			name := tok.Name.Local
			if flat && tok.Name.Space != "" {
				name = tok.Name.Space + ":" + name
			}
			var e *elemSpec
			if len(stack) == 0 {
				if e = sp.byName[name]; e == nil {
					stack = append(stack, &refFrame{name: name})
					report()
					continue
				}
			} else {
				p := stack[len(stack)-1]
				if p.e != nil && !p.failed && !sp.admits(p, name) {
					report()
					p.failed = true
				}
				switch {
				case flat:
					e = sp.byName[name]
				case p.e != nil && p.e.kind == kChildren && sp.mentions(p.e, name):
					e = sp.byName[name]
				}
				if e == nil && flat {
					stack = append(stack, &refFrame{name: name})
					report()
					continue
				}
			}
			f := &refFrame{name: name, e: e}
			if e != nil && e.kind == kChildren {
				f.cur = []parsetree.NodeID{e.auto.T.BeginPos()}
			}
			stack = append(stack, f)
		case xml.EndElement:
			f := stack[len(stack)-1]
			if f.e != nil && !f.failed && f.e.kind == kChildren && !accepts(f) {
				report()
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			f := stack[len(stack)-1]
			if f.e != nil && !f.failed && (f.e.kind == kChildren || f.e.kind == kEmpty) &&
				strings.Trim(string(tok), " \t\r\n") != "" {
				report()
				f.failed = true
			}
		}
	}
}

// admits steps the open element p over child name and reports whether its
// content still admits the children read so far.
func (sp *spec) admits(p *refFrame, name string) bool {
	switch p.e.kind {
	case kEmpty:
		return false
	case kMixed:
		return slices.Contains(p.e.mixed, name)
	case kChildren:
		a := p.e.auto
		s, ok := sp.alpha.Lookup(name)
		if !ok {
			return false
		}
		var next []parsetree.NodeID
		for _, q := range p.cur {
			for _, x := range a.Trans[q][s] {
				if !slices.Contains(next, x) {
					next = append(next, x)
				}
			}
		}
		p.cur = next
		return len(next) > 0
	}
	return true
}

// mentions reports whether e's model mentions name.
func (sp *spec) mentions(e *elemSpec, name string) bool {
	found := false
	ast.Walk(e.model, func(n *ast.Node) {
		if n.Kind == ast.KSym && sp.alpha.Name(n.Sym) == name {
			found = true
		}
	})
	return found
}

// accepts reports whether the children read so far complete f's model:
// some current position is followed by the phantom end $.
func accepts(f *refFrame) bool {
	t := f.e.auto.T
	end := t.EndPos()
	for _, q := range f.cur {
		if slices.Contains(f.e.auto.Trans[q][t.Sym[end]], end) {
			return true
		}
	}
	return false
}
