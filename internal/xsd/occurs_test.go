package xsd

import (
	"strings"
	"testing"

	"dregex"
)

// TestOccursBoundLimit: a finite maxOccurs or minOccurs above
// ast.MaxBound does not fit the parse tree's int32 bounds; it is a schema
// error on its line instead of a bound that wraps and rejects valid
// documents.
func TestOccursBoundLimit(t *testing.T) {
	schema := func(occurs string) []byte {
		return []byte(`<schema xmlns="http://www.w3.org/2001/XMLSchema">
  <element name="r"><complexType><sequence>
    <element name="a" ` + occurs + `><complexType/></element>
  </sequence></complexType></element>
</schema>`)
	}
	for _, occurs := range []string{
		`maxOccurs="4294967298"`,
		`maxOccurs="3000000000"`,
		`minOccurs="2147483647" maxOccurs="unbounded"`,
	} {
		_, err := ParseWithCache(schema(occurs), dregex.NewCache(16))
		if err == nil || !strings.Contains(err.Error(), "line 3:") || !strings.Contains(err.Error(), "exceeds 2147483646") {
			t.Errorf("%s: error %v, want a line-3 schema error", occurs, err)
		}
	}

	s, err := ParseWithCache(schema(`maxOccurs="2147483646"`), dregex.NewCache(16))
	if err != nil {
		t.Fatal(err)
	}
	errs, err := s.ValidateBytes([]byte(`<r><a/><a/><a/></r>`))
	if err != nil || len(errs) != 0 {
		t.Errorf("three <a> under maxOccurs=2147483646: %v %v", errs, err)
	}
}
