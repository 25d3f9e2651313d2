package main

// Seeded input generation. Every input is a pure function of the seed:
// each component draws from its own stream (rng), so adding a component
// never shifts another's inputs. Content models come from internal/wordgen
// and are rendered here into DTD and XSD text; documents are built record
// by record, so every expected verdict is known by construction and never
// taken from the engines under test.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"

	"dregex/client"
	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

// rng returns the random stream of one input component.
func rng(seed int64, component string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(component))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// stratified draws n integers in [lo, hi] with log-uniform density, one
// from each of n equal strata of the log range, in random order. Every
// seed then gets the same size distribution, so a tail percentile does
// not hinge on how many of a seed's draws land in the top of the range.
func stratified(r *rand.Rand, n, lo, hi int) []int {
	a, b := math.Log(float64(lo)), math.Log(float64(hi))
	out := make([]int, n)
	for i, j := range r.Perm(n) {
		out[i] = int(math.Round(math.Exp(a + (float64(j)+r.Float64())/float64(n)*(b-a))))
	}
	return out
}

// spread draws n integers in [lo, hi] with log-uniform density, one from
// each of n equal strata of the log range, in van der Corput order: every
// aligned block of 2^k consecutive draws holds one draw from each of 2^k
// equal strata. n is a power of two. Windows of traffic that send aligned
// blocks then get equal shares of small and large draws.
func spread(r *rand.Rand, n, lo, hi int) []int {
	w := bits.Len(uint(n)) - 1
	a, b := math.Log(float64(lo)), math.Log(float64(hi))
	out := make([]int, n)
	for i := range out {
		j := bits.Reverse(uint(i)) >> (bits.UintSize - w)
		out[i] = int(math.Round(math.Exp(a + (float64(j)+r.Float64())/float64(n)*(b-a))))
	}
	return out
}

// schema is one schema source with the registration answer known by
// construction: kind and declared element count (DTD) or root count (XSD),
// and no warnings, since every generated model is deterministic.
type schema struct {
	Name     string
	Kind     string
	Src      string
	Elements int
	// Nodes lists the AST node count of each generated content model.
	Nodes []int
}

// tagged returns the schema with the placeholder '@' replaced by tag, so
// one template yields any number of fresh versions whose model texts all
// miss the expression cache.
func (s schema) tagged(tag string) schema {
	s.Src = strings.ReplaceAll(s.Src, "@", tag)
	return s
}

// Defect kinds planted in invalid documents.
const (
	defectMissingRequired = "missing-required-attr"
	defectDanglingIDREF   = "dangling-idref"
	defectUndeclared      = "undeclared-element"
	defectCounterBound    = "counter-bound"
)

var (
	dtdDefects = []string{defectMissingRequired, defectDanglingIDREF, defectUndeclared}
	xsdDefects = []string{defectCounterBound, defectUndeclared}
)

// doc is one document to validate, with its expected verdict.
type doc struct {
	ID     int
	Schema string
	Body   []byte
	// Defect is empty for a valid document; otherwise the planted defect,
	// and Elem is the element some reported error must name.
	Defect string
	Elem   string
	// Attrs counts the document's attributes.
	Attrs int
	// twin renders the document again per spec (nil when the document
	// has no twins): the traced run validates attribute-free twins.
	twin func(docSpec) []byte
}

// compileReq is one /v1/compile expression with its answer by
// construction: Det, and for a nondeterministic one the symbol shared by
// the first positions of two alternatives, which Explain must name.
type compileReq struct {
	Expr  string
	Nodes int
	Det   bool
	Sym   string
}

func (c compileReq) tagged(tag string) compileReq {
	c.Expr = strings.ReplaceAll(c.Expr, "@", tag)
	c.Sym = strings.ReplaceAll(c.Sym, "@", tag)
	return c
}

// ---- content-model rendering ----

// dtdModel renders e in DTD content-model notation, naming each symbol
// prefix+alpha.Name(sym); the result is always a parenthesized group.
func dtdModel(e *ast.Node, alpha *ast.Alphabet, prefix string) string {
	var b strings.Builder
	b.WriteByte('(')
	writeCP(&b, e, alpha, prefix)
	b.WriteByte(')')
	return b.String()
}

func writeCP(b *strings.Builder, e *ast.Node, alpha *ast.Alphabet, prefix string) {
	switch e.Kind {
	case ast.KSym:
		b.WriteString(prefix)
		b.WriteString(alpha.Name(e.Sym))
	case ast.KCat, ast.KUnion:
		sep := ", "
		if e.Kind == ast.KUnion {
			sep = " | "
		}
		b.WriteByte('(')
		for i, c := range flatten(e, nil) {
			if i > 0 {
				b.WriteString(sep)
			}
			writeCP(b, c, alpha, prefix)
		}
		b.WriteByte(')')
	default:
		if isPostfix(e.L) {
			b.WriteByte('(')
			writeCP(b, e.L, alpha, prefix)
			b.WriteByte(')')
		} else {
			writeCP(b, e.L, alpha, prefix)
		}
		switch {
		case e.Kind == ast.KOpt:
			b.WriteByte('?')
		case e.Kind == ast.KStar:
			b.WriteByte('*')
		case e.Min == 1 && e.Max == ast.Unbounded:
			b.WriteByte('+')
		default:
			fmt.Fprintf(b, "{%d,%d}", e.Min, e.Max)
		}
	}
}

func isPostfix(e *ast.Node) bool {
	return e.Kind == ast.KOpt || e.Kind == ast.KStar || e.Kind == ast.KIter
}

// flatten lists the operands of a chain of same-kind binary nodes.
func flatten(e *ast.Node, out []*ast.Node) []*ast.Node {
	for _, c := range []*ast.Node{e.L, e.R} {
		if c.Kind == e.Kind {
			out = flatten(c, out)
		} else {
			out = append(out, c)
		}
	}
	return out
}

// xsdParticle renders e as an XSD particle whose leaves are xs:string
// elements named prefix+alpha.Name(sym).
func xsdParticle(b *strings.Builder, e *ast.Node, alpha *ast.Alphabet, prefix string, min, max int) {
	occ := occurs(min, max)
	switch e.Kind {
	case ast.KSym:
		fmt.Fprintf(b, `<xs:element name="%s%s" type="xs:string"%s/>`, prefix, alpha.Name(e.Sym), occ)
	case ast.KCat, ast.KUnion:
		tag := "xs:sequence"
		if e.Kind == ast.KUnion {
			tag = "xs:choice"
		}
		fmt.Fprintf(b, "<%s%s>", tag, occ)
		for _, c := range flatten(e, nil) {
			xsdParticle(b, c, alpha, prefix, 1, 1)
		}
		fmt.Fprintf(b, "</%s>", tag)
	default:
		lo, hi := 0, 1
		switch e.Kind {
		case ast.KStar:
			hi = ast.Unbounded
		case ast.KIter:
			lo, hi = e.Min, e.Max
		}
		if min == 1 && max == 1 {
			xsdParticle(b, e.L, alpha, prefix, lo, hi)
			return
		}
		fmt.Fprintf(b, "<xs:sequence%s>", occ)
		xsdParticle(b, e.L, alpha, prefix, lo, hi)
		b.WriteString("</xs:sequence>")
	}
}

func occurs(min, max int) string {
	s := ""
	if min != 1 {
		s += fmt.Sprintf(` minOccurs="%d"`, min)
	}
	switch {
	case max == ast.Unbounded:
		s += ` maxOccurs="unbounded"`
	case max != 1:
		s += fmt.Sprintf(` maxOccurs="%d"`, max)
	}
	return s
}

// leaves returns the distinct symbol names of e in first-occurrence order.
func leaves(e *ast.Node, alpha *ast.Alphabet) []string {
	var out []string
	seen := map[ast.Symbol]bool{}
	ast.Walk(e, func(n *ast.Node) {
		if n.Kind == ast.KSym && !seen[n.Sym] {
			seen[n.Sym] = true
			out = append(out, alpha.Name(n.Sym))
		}
	})
	return out
}

// ---- small generated schemas: the base registry and the write traffic ----

// model is one generated content model over its own alphabet.
type model struct {
	e     *ast.Node
	alpha *ast.Alphabet
}

// smallModel draws a content model with the proportions of the E9 corpus
// and the practical studies: CHARE chains nine times in ten, otherwise a
// random 1-ORE. Both are deterministic by construction (each symbol occurs
// once). With counters, chain factors without a postfix get {m,n} bounds
// (XSD minOccurs/maxOccurs); a bounded factor of distinct symbols that is
// not itself iterated keeps the model deterministic.
func smallModel(r *rand.Rand, counters bool) model {
	alpha := ast.NewAlphabet()
	if r.Intn(10) != 0 {
		e := wordgen.CHARE(r, alpha, 2+r.Intn(5), 4)
		if counters {
			parts := flatten(e, nil)
			for i, f := range parts {
				if !isPostfix(f) && r.Intn(5) < 2 {
					lo := r.Intn(3)
					parts[i] = ast.Iter(f, lo, lo+2+r.Intn(5))
				}
			}
			e = ast.CatAll(parts...)
		}
		return model{e, alpha}
	}
	return model{wordgen.RandomDeterministicExpr(r, alpha, 10, 24, false), alpha}
}

// modelPool is the set of models shared across schemas of one kind, so
// registering the base registry gets expression-cache hits.
func modelPool(r *rand.Rand, n int, counters bool) []model {
	pool := make([]model, n)
	for i := range pool {
		pool[i] = smallModel(r, counters)
	}
	return pool
}

// smallDTD builds a DTD with ten element types under a root, about three
// of them drawn from the shared pool (none when pool is empty), each with
// a small ATTLIST. Names start
// with prefix, which may carry the '@' placeholder of a template.
func smallDTD(r *rand.Rand, name, prefix string, pool []model) schema {
	var b strings.Builder
	const inner = 10
	declared := map[string]bool{}
	var leafNames []string
	var nodes []int
	fmt.Fprintf(&b, "<!ELEMENT %sroot (", prefix)
	for i := 0; i < inner; i++ {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%sn%d", prefix, i)
	}
	b.WriteString(")*>\n")
	for i := 0; i < inner; i++ {
		m, mp := smallModel(r, false), fmt.Sprintf("%sm%d_", prefix, i)
		if len(pool) > 0 && r.Intn(10) < 3 {
			j := r.Intn(len(pool))
			m, mp = pool[j], fmt.Sprintf("q%d_", j)
		}
		nodes = append(nodes, ast.Size(m.e))
		fmt.Fprintf(&b, "<!ELEMENT %sn%d %s>\n", prefix, i, dtdModel(m.e, m.alpha, mp))
		fmt.Fprintf(&b, "<!ATTLIST %sn%d key ID #IMPLIED mode (on|off|auto) \"auto\" note CDATA #IMPLIED>\n", prefix, i)
		for _, l := range leaves(m.e, m.alpha) {
			if n := mp + l; !declared[n] {
				declared[n] = true
				leafNames = append(leafNames, n)
			}
		}
	}
	for i, n := range leafNames {
		if i%2 == 0 {
			fmt.Fprintf(&b, "<!ELEMENT %s (#PCDATA)>\n", n)
		} else {
			fmt.Fprintf(&b, "<!ELEMENT %s EMPTY>\n", n)
		}
	}
	return schema{Name: name, Kind: client.KindDTD, Src: b.String(),
		Elements: 1 + inner + len(leafNames), Nodes: nodes}
}

// smallXSD builds an XML Schema with one global root over six named
// complex types; a third of the chain factors carry counters.
func smallXSD(r *rand.Rand, name, prefix string, pool []model) schema {
	var b strings.Builder
	const inner = 6
	var nodes []int
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">` + "\n")
	fmt.Fprintf(&b, `<xs:element name="%sroot"><xs:complexType><xs:choice minOccurs="0" maxOccurs="unbounded">`, prefix)
	for i := 0; i < inner; i++ {
		fmt.Fprintf(&b, `<xs:element name="%sg%d" type="%sT%d"/>`, prefix, i, prefix, i)
	}
	b.WriteString("</xs:choice></xs:complexType></xs:element>\n")
	for i := 0; i < inner; i++ {
		m, mp := smallModel(r, true), fmt.Sprintf("%sm%d_", prefix, i)
		if len(pool) > 0 && r.Intn(10) < 3 {
			j := r.Intn(len(pool))
			m, mp = pool[j], fmt.Sprintf("q%d_", j)
		}
		nodes = append(nodes, ast.Size(m.e))
		fmt.Fprintf(&b, `<xs:complexType name="%sT%d"><xs:sequence>`, prefix, i)
		xsdParticle(&b, m.e, m.alpha, mp, 1, 1)
		b.WriteString("</xs:sequence></xs:complexType>\n")
	}
	b.WriteString("</xs:schema>\n")
	return schema{Name: name, Kind: client.KindXSD, Src: b.String(), Elements: 1, Nodes: nodes}
}

// ---- large models: the §4 engine tiers ----

// Tier names as the program reports them (dregex.Algorithm.String and
// dregex.TierCounter).
const (
	tierTable      = "table"
	tierCounter    = "counter"
	tierKORE       = "kore"
	tierPathDecomp = "pathdecomp"
	tierColored    = "colored"
)

var tiers = []string{tierTable, tierCounter, tierKORE, tierPathDecomp, tierColored}

// wideModel builds a starred model past the dense-table budget (more than
// 1022 positions), shaped like benchtab E5 so that Auto lands on the
// given §4 tier: a 2-occurrence block for KORE (k ≤ 2), a 3-occurrence
// block for PathDecomp (c_e ≤ 8), and a 3-occurrence block behind a deep
// alternation tower for Colored (c_e > 8).
func wideModel(tier string, m int) model {
	alpha := ast.NewAlphabet()
	var e *ast.Node
	switch tier {
	case tierKORE:
		e = wordgen.KOccurrence(alpha, m, 2)
	case tierPathDecomp:
		e = wordgen.KOccurrence(alpha, m, 3)
	case tierColored:
		e = ast.Cat(wordgen.DeepAlternation(alpha, 5, 2), wordgen.KOccurrence(alpha, m, 3))
	default:
		panic("wideModel: no wide shape for tier " + tier)
	}
	return model{ast.Normalize(ast.Star(e)), alpha}
}

// wideSchema is a DTD whose root element has the wide model; every symbol
// is an EMPTY element.
func wideSchema(name, root string, m model) schema {
	var b strings.Builder
	fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", root, dtdModel(m.e, m.alpha, ""))
	ls := leaves(m.e, m.alpha)
	for _, l := range ls {
		fmt.Fprintf(&b, "<!ELEMENT %s EMPTY>\n", l)
	}
	return schema{Name: name, Kind: client.KindDTD, Src: b.String(),
		Elements: 1 + len(ls), Nodes: []int{ast.Size(m.e)}}
}

// modelWords samples one word of L(m) per target length, for a starred
// model m. It draws a pool of words with words.RandomWord, the random walk
// over the follow relation, and concatenates pool words until each target
// is reached: L(e*) is closed under concatenation, so every result is in
// the language by construction.
func modelWords(r *rand.Rand, m model, targets []int) [][]string {
	if m.e.Kind != ast.KStar {
		panic("modelWords: model is not starred")
	}
	t, err := parsetree.Build(m.e, m.alpha)
	if err != nil {
		panic(err)
	}
	fol := follow.New(t)
	pool := make([][]string, 8)
	for i := range pool {
		w, ok := words.RandomWord(r, fol, 256, 0)
		if !ok || len(w) == 0 {
			panic("modelWords: no word")
		}
		for _, s := range w {
			pool[i] = append(pool[i], m.alpha.Name(s))
		}
	}
	out := make([][]string, len(targets))
	for i, n := range targets {
		for len(out[i]) < n {
			out[i] = append(out[i], pool[r.Intn(len(pool))]...)
		}
	}
	return out
}

// wideDoc renders a document whose root holds the word's symbols as empty
// child elements.
func wideDoc(root string, word []string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "<%s>\n", root)
	for _, s := range word {
		fmt.Fprintf(&b, "<%s/>\n", s)
	}
	fmt.Fprintf(&b, "</%s>\n", root)
	return b.Bytes()
}

// ---- compile expressions ----

// genCompile draws a fresh /v1/compile expression of about n nodes: a
// random 1-ORE, deterministic by construction, or when nondet is set, two
// alternatives that share a first symbol, nondeterministic by
// construction. Symbol names carry the '@' placeholder.
func genCompile(r *rand.Rand, n int, nondet bool) compileReq {
	alpha := ast.NewAlphabet()
	e := wordgen.RandomDeterministicExpr(r, alpha, n, n, false)
	// The generator can stop early; keep small draws at 8 nodes or more.
	for tries := 0; ast.Size(e) < 8 && tries < 32; tries++ {
		alpha = ast.NewAlphabet()
		e = wordgen.RandomDeterministicExpr(r, alpha, n, n, false)
	}
	c := compileReq{Det: true}
	if nondet {
		z := alpha.Intern("zz")
		e = ast.Union(ast.Cat(ast.Sym(z), e), ast.Cat(ast.Sym(z), ast.Sym(alpha.Intern("zy"))))
		c.Det, c.Sym = false, "@zz"
	}
	c.Expr = dtdModel(e, alpha, "@")
	c.Nodes = ast.Size(e)
	return c
}

// ---- the two hot schemas: an ATTLIST-heavy DTD and a counter XSD ----

const ledgerDTD = `<!ELEMENT ledger (meta, party+, order*)>
<!ATTLIST ledger version CDATA #FIXED "2" region (eu|us|apac) #REQUIRED>
<!ELEMENT meta (title, note?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT party (name, addr+, (phone | email)*)>
<!ATTLIST party id ID #REQUIRED kind (person|org) "person" vat NMTOKEN #IMPLIED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT addr (#PCDATA)>
<!ATTLIST addr type (home|work|ship) #REQUIRED>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT email (#PCDATA)>
<!ELEMENT order (line+, (ship | pickup)?, memo*)>
<!ATTLIST order id ID #REQUIRED buyer IDREF #REQUIRED cc IDREFS #IMPLIED status (open|paid|shipped|void) #REQUIRED currency (EUR|USD|GBP) "EUR">
<!ELEMENT line (#PCDATA)>
<!ATTLIST line sku NMTOKEN #REQUIRED qty CDATA #REQUIRED price CDATA #REQUIRED>
<!ELEMENT ship EMPTY>
<!ATTLIST ship carrier (ups|dhl|post) #REQUIRED ref CDATA #IMPLIED>
<!ELEMENT pickup EMPTY>
<!ATTLIST pickup store IDREF #REQUIRED>
<!ELEMENT memo (#PCDATA)>
`

// ledgerBareDTD is ledgerDTD without its ATTLIST declarations: the schema
// of the attribute-free twins the traced run measures attrs against.
var ledgerBareDTD = func() string {
	var b strings.Builder
	for _, l := range strings.SplitAfter(ledgerDTD, "\n") {
		if !strings.HasPrefix(l, "<!ATTLIST") {
			b.WriteString(l)
		}
	}
	return b.String()
}()

const batchXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="batch" type="Batch"/>
  <xs:complexType name="Batch">
    <xs:sequence>
      <xs:element name="source" type="xs:string"/>
      <xs:element name="series" type="Series" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Series">
    <xs:sequence>
      <xs:element name="label" type="xs:string"/>
      <xs:element name="point" type="xs:string" minOccurs="2" maxOccurs="12"/>
      <xs:choice minOccurs="0" maxOccurs="3">
        <xs:element name="flag" type="xs:string"/>
        <xs:element name="comment" type="xs:string"/>
      </xs:choice>
      <xs:element name="unit" type="xs:string" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>
`

const (
	hotDTD    = "ledger"
	hotXSD    = "batch"
	maxPoints = 12 // the point counter's upper bound in batchXSD
)

var hotSchemas = []schema{
	{Name: hotDTD, Kind: client.KindDTD, Src: ledgerDTD, Elements: 14},
	{Name: hotXSD, Kind: client.KindXSD, Src: batchXSD, Elements: 1},
}

var lexicon = strings.Fields(`amber basalt cedar delta ember fjord granite harbor
indigo juniper kelp lumen meadow nectar onyx pewter quartz river saffron
tundra umber vessel willow xenon yarrow zephyr anchor beacon copper dune`)

// text draws n words of lowercase prose.
func text(r *rand.Rand, n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = lexicon[r.Intn(len(lexicon))]
	}
	return strings.Join(ws, " ")
}

// docSpec says how to render one generated document: whether to write
// attributes (the attribute-free twin omits them) and which defect, if
// any, to plant. A document and its twins consume identical random draws,
// so they differ only where the spec says.
type docSpec struct {
	noAttrs bool
	defect  string
}

type ledgerParty struct {
	id, kind, vat, name string
	addrs               [][2]string // type, text
	contacts            [][2]string // element, text
}

type ledgerLine struct{ sku, qty, price, text string }

type ledgerOrder struct {
	id, buyer, status, currency string
	cc                          []string
	lines                       []ledgerLine
	ship                        [2]string // carrier, ref; carrier "" for none
	pickup                      string    // store IDREF; "" for none
	memos                       []string
}

type ledger struct {
	region, title, note string
	parties             []ledgerParty
	orders              []ledgerOrder
	defectAt            int // order index the defect is planted in
}

// genLedger draws a ledger document of about target bytes. Large
// documents carry longer text and more attributes per record.
func genLedger(r *rand.Rand, target int, large bool) *ledger {
	words := func(lo, hi int) string {
		if large {
			lo, hi = lo*3, hi*4
		}
		return text(r, lo+r.Intn(hi-lo+1))
	}
	l := &ledger{region: []string{"eu", "us", "apac"}[r.Intn(3)], title: words(2, 5)}
	if r.Intn(2) == 0 {
		l.note = words(3, 8)
	}
	size := 120
	for len(l.parties) == 0 || len(l.orders) == 0 || size < target {
		if len(l.parties) == 0 || r.Intn(4) == 0 {
			p := ledgerParty{id: fmt.Sprintf("p%d", len(l.parties)+1),
				kind: []string{"person", "org"}[r.Intn(2)], name: words(1, 3)}
			if r.Intn(2) == 0 {
				p.vat = fmt.Sprintf("VAT%06d", r.Intn(1000000))
			}
			for n := 1 + r.Intn(2); n > 0; n-- {
				p.addrs = append(p.addrs, [2]string{[]string{"home", "work", "ship"}[r.Intn(3)], words(3, 7)})
			}
			for n := r.Intn(3); n > 0; n-- {
				p.contacts = append(p.contacts, [2]string{[]string{"phone", "email"}[r.Intn(2)], words(1, 2)})
			}
			l.parties = append(l.parties, p)
			size += 90 + len(p.name) + 40*len(p.addrs) + 30*len(p.contacts)
			continue
		}
		o := ledgerOrder{id: fmt.Sprintf("o%d", len(l.orders)+1),
			buyer:    l.parties[r.Intn(len(l.parties))].id,
			status:   []string{"open", "paid", "shipped", "void"}[r.Intn(4)],
			currency: []string{"", "EUR", "USD", "GBP"}[r.Intn(4)]}
		if large || r.Intn(3) == 0 {
			for n := 1 + r.Intn(3); n > 0; n-- {
				o.cc = append(o.cc, l.parties[r.Intn(len(l.parties))].id)
			}
		}
		for n := 1 + r.Intn(4); n > 0; n-- {
			o.lines = append(o.lines, ledgerLine{sku: fmt.Sprintf("SKU-%04d", r.Intn(10000)),
				qty: strconv.Itoa(1 + r.Intn(20)), price: fmt.Sprintf("%d.%02d", r.Intn(500), r.Intn(100)),
				text: words(2, 6)})
		}
		switch r.Intn(3) {
		case 0:
			o.ship = [2]string{[]string{"ups", "dhl", "post"}[r.Intn(3)], ""}
			if large || r.Intn(2) == 0 {
				o.ship[1] = fmt.Sprintf("TRK%08d", r.Intn(100000000))
			}
		case 1:
			o.pickup = l.parties[r.Intn(len(l.parties))].id
		}
		for n := r.Intn(3); n > 0; n-- {
			o.memos = append(o.memos, words(3, 10))
		}
		l.orders = append(l.orders, o)
		size += 110 + 70*len(o.lines) + 40*len(o.memos)
		for _, ln := range o.lines {
			size += len(ln.text)
		}
		for _, m := range o.memos {
			size += len(m)
		}
	}
	l.defectAt = r.Intn(len(l.orders))
	return l
}

// render writes the ledger per spec and returns the bytes and the number
// of attributes written.
func (l *ledger) render(spec docSpec) ([]byte, int) {
	var b bytes.Buffer
	nattr := 0
	attr := func(name, val string) {
		if spec.noAttrs || val == "" {
			return
		}
		fmt.Fprintf(&b, ` %s="%s"`, name, val)
		nattr++
	}
	b.WriteString("<ledger")
	attr("region", l.region)
	b.WriteString(">\n<meta><title>" + l.title + "</title>")
	if l.note != "" {
		b.WriteString("<note>" + l.note + "</note>")
	}
	b.WriteString("</meta>\n")
	for _, p := range l.parties {
		b.WriteString("<party")
		attr("id", p.id)
		attr("kind", p.kind)
		attr("vat", p.vat)
		b.WriteString("><name>" + p.name + "</name>")
		for _, a := range p.addrs {
			b.WriteString("<addr")
			attr("type", a[0])
			b.WriteString(">" + a[1] + "</addr>")
		}
		for _, c := range p.contacts {
			fmt.Fprintf(&b, "<%s>%s</%s>", c[0], c[1], c[0])
		}
		b.WriteString("</party>\n")
	}
	for i, o := range l.orders {
		defect := ""
		if i == l.defectAt {
			defect = spec.defect
		}
		b.WriteString("<order")
		attr("id", o.id)
		if defect == defectDanglingIDREF {
			attr("buyer", "nobody")
		} else {
			attr("buyer", o.buyer)
		}
		attr("cc", strings.Join(o.cc, " "))
		if defect != defectMissingRequired {
			attr("status", o.status)
		}
		attr("currency", o.currency)
		b.WriteString(">")
		for _, ln := range o.lines {
			b.WriteString("<line")
			attr("sku", ln.sku)
			attr("qty", ln.qty)
			attr("price", ln.price)
			b.WriteString(">" + ln.text + "</line>")
		}
		if defect == defectUndeclared {
			b.WriteString("<gift>wrapped</gift>")
		}
		switch {
		case o.ship[0] != "":
			b.WriteString("<ship")
			attr("carrier", o.ship[0])
			attr("ref", o.ship[1])
			b.WriteString("/>")
		case o.pickup != "":
			b.WriteString("<pickup")
			attr("store", o.pickup)
			b.WriteString("/>")
		}
		for _, m := range o.memos {
			b.WriteString("<memo>" + m + "</memo>")
		}
		b.WriteString("</order>\n")
	}
	b.WriteString("</ledger>\n")
	return b.Bytes(), nattr
}

// defectElem is the element an error must name for each planted defect.
func defectElem(kind, defect string) string {
	switch {
	case defect == defectUndeclared && kind == client.KindDTD:
		return "gift"
	case kind == client.KindDTD:
		return "order"
	default:
		return "series"
	}
}

type batchSeries struct {
	label  string
	points []string
	extras [][2]string // element, text
	unit   string
}

type batch struct {
	source   string
	series   []batchSeries
	defectAt int
}

// genBatch draws a batch document of about target bytes.
func genBatch(r *rand.Rand, target int, large bool) *batch {
	words := func(lo, hi int) string {
		if large {
			lo, hi = lo*3, hi*4
		}
		return text(r, lo+r.Intn(hi-lo+1))
	}
	bt := &batch{source: words(2, 4)}
	size := 60
	for len(bt.series) == 0 || size < target {
		s := batchSeries{label: words(1, 4)}
		for n := 2 + r.Intn(maxPoints-1); n > 0; n-- {
			s.points = append(s.points, fmt.Sprintf("%d.%03d", r.Intn(1000), r.Intn(1000)))
		}
		for n := r.Intn(4); n > 0; n-- {
			s.extras = append(s.extras, [2]string{[]string{"flag", "comment"}[r.Intn(2)], words(1, 6)})
		}
		if r.Intn(2) == 0 {
			s.unit = []string{"kPa", "degC", "m/s", "lux"}[r.Intn(4)]
		}
		bt.series = append(bt.series, s)
		size += 60 + len(s.label) + 24*len(s.points) + 30*len(s.extras)
		for _, e := range s.extras {
			size += len(e[1])
		}
	}
	bt.defectAt = r.Intn(len(bt.series))
	return bt
}

func (bt *batch) render(spec docSpec) []byte {
	var b bytes.Buffer
	b.WriteString("<batch>\n<source>" + bt.source + "</source>\n")
	for i, s := range bt.series {
		defect := ""
		if i == bt.defectAt {
			defect = spec.defect
		}
		b.WriteString("<series><label>" + s.label + "</label>")
		for _, p := range s.points {
			b.WriteString("<point>" + p + "</point>")
		}
		if defect == defectCounterBound {
			for n := len(s.points); n <= maxPoints; n++ {
				b.WriteString("<point>0.000</point>")
			}
		}
		for _, e := range s.extras {
			fmt.Fprintf(&b, "<%s>%s</%s>", e[0], e[1], e[0])
		}
		if s.unit != "" {
			b.WriteString("<unit>" + s.unit + "</unit>")
		}
		if defect == defectUndeclared {
			b.WriteString("<extra>stray</extra>")
		}
		b.WriteString("</series>\n")
	}
	b.WriteString("</batch>\n")
	return b.Bytes()
}

// hotDoc generates document id of a hot-schema document set, of about
// target bytes: even ids validate against the ledger DTD and odd ids
// against the batch XSD, and one document in eight of each kind carries a
// planted defect, cycling through the defect kinds.
func hotDoc(seed int64, set string, id, target int, large bool) doc {
	j := id / 2
	d := doc{ID: id}
	draw := func() *rand.Rand { return rng(seed, fmt.Sprintf("%s/doc/%d", set, id)) }
	if id%2 == 0 {
		d.Schema = hotDTD
		if j%8 == 7 {
			d.Defect = dtdDefects[(j/8)%len(dtdDefects)]
			d.Elem = defectElem(client.KindDTD, d.Defect)
		}
		d.twin = func(spec docSpec) []byte {
			b, _ := genLedger(draw(), target, large).render(spec)
			return b
		}
		d.Body, d.Attrs = genLedger(draw(), target, large).render(docSpec{defect: d.Defect})
		return d
	}
	d.Schema = hotXSD
	if j%8 == 7 {
		d.Defect = xsdDefects[(j/8)%len(xsdDefects)]
		d.Elem = defectElem(client.KindXSD, d.Defect)
	}
	d.twin = func(spec docSpec) []byte { return genBatch(draw(), target, large).render(spec) }
	d.Body = d.twin(docSpec{defect: d.Defect})
	return d
}

// hotDocs generates a document set of n documents with log-uniform sizes
// in [lo, hi] bytes.
func hotDocs(seed int64, set string, n, lo, hi int, large bool) []doc {
	sizes := stratified(rng(seed, set+"/sizes"), n, lo, hi)
	docs := make([]doc, n)
	for id := range docs {
		docs[id] = hotDoc(seed, set, id, sizes[id], large)
	}
	return docs
}
