package main

// Input properties: exact counts over a workload's documents, taken by
// walking each document with the schema compiled through the library.

import (
	"fmt"
	"io"
	"sort"

	"dregex"
	"dregex/client"
	"dregex/internal/dtd"
	"dregex/internal/xmltok"
	"dregex/internal/xsd"
)

// compiled is one schema compiled through the library, for the offline
// walks and replays.
type compiled struct {
	kind string
	dtd  *dtd.DTD
	xsd  *xsd.Schema
}

func compileSchema(s schema, cache *dregex.Cache) (compiled, error) {
	c := compiled{kind: s.Kind}
	var err error
	if s.Kind == client.KindDTD {
		c.dtd, err = dtd.ParseWithCache(s.Src, cache)
	} else {
		c.xsd, err = xsd.ParseWithCache([]byte(s.Src), cache)
	}
	return c, err
}

// occurrence is one element of a document whose content model is fed to
// a streaming engine, with the child names fed.
type occurrence struct {
	tier  string
	cm    *dregex.Expr
	ncm   *dregex.NumericExpr
	names []string
}

// docShape is what a walk finds in one document.
type docShape struct {
	bytes, attrs int
	occs         []occurrence
}

// symbols counts the child names fed to engines, per tier.
func (s *docShape) symbols() map[string]int {
	m := map[string]int{}
	for _, o := range s.occs {
		m[o.tier] += len(o.names)
	}
	return m
}

// walk tokenizes body and resolves every element to its content model the
// way the validators do, collecting the child sequence of each element
// with a deterministic children model.
func (c compiled) walk(body []byte) (*docShape, error) {
	type frame struct {
		occ  *occurrence
		xtyp *xsd.Type
	}
	var tok xmltok.Tokenizer
	tok.Reset(body)
	sh := &docShape{bytes: len(body)}
	var stack []frame
	for {
		kind, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch kind {
		case xmltok.StartElement:
			name := string(tok.Local())
			sh.attrs += tok.AttrCount()
			var parent *frame
			if len(stack) > 0 {
				parent = &stack[len(stack)-1]
				if parent.occ != nil {
					parent.occ.names = append(parent.occ.names, name)
				}
			}
			f := frame{}
			switch {
			case c.dtd != nil:
				if el := c.dtd.Elements[name]; el != nil && el.Kind == dtd.Children && el.Deterministic {
					f.occ = &occurrence{tier: el.CM.AutoAlgorithm().String(), cm: el.CM}
				}
			default:
				var decl *xsd.ElementDecl
				if parent == nil {
					decl = c.xsd.Roots[name]
				} else {
					decl = parent.xtyp.Child(name)
				}
				if decl != nil {
					f.xtyp = decl.Type
					if t := decl.Type; t != nil && t.Kind == xsd.Children && t.Deterministic {
						if t.Numeric {
							f.occ = &occurrence{tier: tierCounter, ncm: t.NCM}
						} else {
							f.occ = &occurrence{tier: t.CM.AutoAlgorithm().String(), cm: t.CM}
						}
					}
				}
			}
			stack = append(stack, f)
		case xmltok.EndElement:
			if f := stack[len(stack)-1]; f.occ != nil {
				sh.occs = append(sh.occs, *f.occ)
			}
			stack = stack[:len(stack)-1]
		}
	}
	return sh, nil
}

// shapes walks every validate document of the inputs.
func (in *inputs) shapes(cache *dregex.Cache) ([]*docShape, map[string]compiled, error) {
	schemas := map[string]compiled{}
	for _, s := range in.own {
		c, err := compileSchema(s, cache)
		if err != nil {
			return nil, nil, fmt.Errorf("compiling %s: %w", s.Name, err)
		}
		schemas[s.Name] = c
	}
	out := make([]*docShape, len(in.docs))
	for i := range in.docs {
		sh, err := schemas[in.docs[i].Schema].walk(in.docs[i].Body)
		if err != nil {
			return nil, nil, fmt.Errorf("walking %s: %w", docID(&in.docs[i]), err)
		}
		out[i] = sh
	}
	return out, schemas, nil
}

// properties are the exact input counts of a workload, per document.
type properties struct {
	docs                        int
	bytesPerDoc, symbolsPerDoc  float64
	attrsPerDoc, invalidShare   float64
	tierSyms                    map[string]float64 // symbols per document, per tier
	modelNodes                  []int
	putNodes, compileNodes      []int
	baseSchemas, ownSchemas     int
	compileNondet, compileTotal int
}

func (in *inputs) properties(shapes []*docShape) properties {
	p := properties{docs: len(in.docs), tierSyms: map[string]float64{},
		baseSchemas: len(in.base), ownSchemas: len(in.own)}
	n := float64(len(in.docs))
	for i, sh := range shapes {
		p.bytesPerDoc += float64(sh.bytes) / n
		p.attrsPerDoc += float64(sh.attrs) / n
		if in.docs[i].Defect != "" {
			p.invalidShare += 1 / n
		}
		for t, k := range sh.symbols() {
			p.tierSyms[t] += float64(k) / n
			p.symbolsPerDoc += float64(k) / n
		}
	}
	for _, list := range [][]schema{in.base, in.own} {
		for _, s := range list {
			p.modelNodes = append(p.modelNodes, s.Nodes...)
		}
	}
	for _, s := range in.writes.puts {
		p.putNodes = append(p.putNodes, s.Nodes...)
	}
	for _, c := range in.writes.compiles {
		p.compileNodes = append(p.compileNodes, c.Nodes)
		p.compileTotal++
		if !c.Det {
			p.compileNondet++
		}
	}
	return p
}

// printProperties prints the workload's input properties.
func printProperties(w io.Writer, in *inputs) error {
	shapes, _, err := in.shapes(dregex.NewCache(4096))
	if err != nil {
		return err
	}
	p := in.properties(shapes)
	fmt.Fprintf(w, "workload %s: %d connection(s), %d base + %d own schemas, %d documents\n",
		in.name, in.conns, p.baseSchemas, p.ownSchemas, p.docs)
	fmt.Fprintf(w, "  per document: %.1f bytes, %.1f symbols, %.1f attributes; invalid share %.4f\n",
		p.bytesPerDoc, p.symbolsPerDoc, p.attrsPerDoc, p.invalidShare)
	for _, t := range tiers {
		share := 0.0
		if p.symbolsPerDoc > 0 {
			share = p.tierSyms[t] / p.symbolsPerDoc
		}
		fmt.Fprintf(w, "  symbols on %-10s %10.1f per document (share %.4f)\n", t, p.tierSyms[t], share)
	}
	fmt.Fprintf(w, "  registered model nodes: %s\n", sizeSummary(p.modelNodes))
	fmt.Fprintf(w, "  PUT template model nodes: %s\n", sizeSummary(p.putNodes))
	fmt.Fprintf(w, "  compile expression nodes: %s; nondeterministic %d of %d\n",
		sizeSummary(p.compileNodes), p.compileNondet, p.compileTotal)
	return nil
}

func sizeSummary(xs []int) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	sum := 0
	for _, x := range s {
		sum += x
	}
	return fmt.Sprintf("n=%d min=%d median=%d max=%d mean=%.1f",
		len(s), s[0], s[len(s)/2], s[len(s)-1], float64(sum)/float64(len(s)))
}
