package ast

import (
	"fmt"
	"unicode/utf8"
)

// Symbol is a dense interned identifier for an alphabet symbol. The two
// phantom markers required by rule (R1) of the paper — # at the beginning
// and $ at the end of every expression — occupy the first two ids so that
// every compiled expression shares their encoding.
type Symbol int32

// Reserved symbols. Begin is the phantom symbol # and End is the phantom
// symbol $ of rule (R1); user symbols start at FirstUser.
const (
	Begin Symbol = 0
	End   Symbol = 1
	// FirstUser is the first id handed out for a user symbol.
	FirstUser Symbol = 2
	// None marks a name outside the alphabet. Every matcher rejects it, so
	// words can be interned against a sealed alphabet without mutating it.
	None Symbol = -1
)

// BeginName and EndName are the display names of the phantom markers.
const (
	BeginName = "#"
	EndName   = "$"
)

// Alphabet interns symbol names to dense Symbol ids. The zero value is not
// usable; call NewAlphabet. Interning mutates the alphabet and must finish
// before it is shared; Lookup* methods are read-only and safe for
// concurrent use afterwards.
type Alphabet struct {
	names []string
	ids   map[string]Symbol
	// ascii caches single-ASCII-rune names so math-notation matching needs
	// neither a string conversion nor a map probe per symbol.
	ascii [128]Symbol
}

// NewAlphabet returns an empty alphabet with the phantom markers # and $
// pre-interned.
func NewAlphabet() *Alphabet {
	a := &Alphabet{
		names: []string{BeginName, EndName},
		ids:   map[string]Symbol{BeginName: Begin, EndName: End},
	}
	for i := range a.ascii {
		a.ascii[i] = None
	}
	a.ascii['#'] = Begin
	a.ascii['$'] = End
	return a
}

// Intern returns the id for name, allocating a fresh one on first use.
func (a *Alphabet) Intern(name string) Symbol {
	if id, ok := a.ids[name]; ok {
		return id
	}
	id := Symbol(len(a.names))
	a.names = append(a.names, name)
	a.ids[name] = id
	if len(name) == 1 && name[0] < 128 {
		a.ascii[name[0]] = id
	}
	return id
}

// InternRune is Intern for a single-rune name. A name seen before costs
// no allocation: ASCII names come from the cache, others are probed with
// a stack buffer.
func (a *Alphabet) InternRune(r rune) Symbol {
	if r >= 0 && r < 128 && a.ascii[r] != None {
		return a.ascii[r]
	}
	var buf [utf8.UTFMax]byte
	b := buf[:utf8.EncodeRune(buf[:], r)]
	if id, ok := a.ids[string(b)]; ok {
		return id
	}
	return a.Intern(string(b))
}

// InternWord interns every name of a word, in order. It is the setup-time
// counterpart of LookupWord: use it while building an alphabet, not on the
// sealed alphabet of a compiled expression.
func (a *Alphabet) InternWord(names []string) []Symbol {
	word := make([]Symbol, len(names))
	for i, n := range names {
		word[i] = a.Intern(n)
	}
	return word
}

// Lookup returns the id for name and whether it has been interned.
func (a *Alphabet) Lookup(name string) (Symbol, bool) {
	id, ok := a.ids[name]
	return id, ok
}

// LookupBytes returns the id for a name given as raw bytes (an element
// name straight out of a document tokenizer) and whether it has been
// interned. The string conversion in the map probe does not allocate.
func (a *Alphabet) LookupBytes(name []byte) (Symbol, bool) {
	id, ok := a.ids[string(name)]
	return id, ok
}

// LookupRune returns the id of a single-rune name without allocating.
func (a *Alphabet) LookupRune(r rune) (Symbol, bool) {
	if r >= 0 && r < 128 {
		id := a.ascii[r]
		return id, id != None
	}
	id, ok := a.ids[string(r)]
	return id, ok
}

// LookupWord appends the ids of a word of names to dst and returns the
// extended slice; names outside the alphabet map to None (which every
// matcher rejects). It never interns, so it is safe on shared alphabets,
// and it performs no allocation when dst has sufficient capacity.
func (a *Alphabet) LookupWord(dst []Symbol, names []string) []Symbol {
	for _, n := range names {
		id, ok := a.ids[n]
		if !ok {
			id = None
		}
		dst = append(dst, id)
	}
	return dst
}

// Name returns the display name of s. It panics if s was never interned.
func (a *Alphabet) Name(s Symbol) string {
	if int(s) < 0 || int(s) >= len(a.names) {
		panic(fmt.Sprintf("ast.Alphabet.Name: unknown symbol %d", s))
	}
	return a.names[s]
}

// Size returns the number of interned symbols including # and $.
func (a *Alphabet) Size() int { return len(a.names) }

// UserSize returns σ, the number of distinct user symbols.
func (a *Alphabet) UserSize() int { return len(a.names) - 2 }

// Names returns the display names of all user symbols in id order.
func (a *Alphabet) Names() []string {
	out := make([]string, 0, a.UserSize())
	for _, n := range a.names[FirstUser:] {
		out = append(out, n)
	}
	return out
}
