package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// parseReference is the encoding/xml loop Parse was built on until the
// scanner replaced it, moved here verbatim. It is the oracle of the
// accept/reject contract in the package doc: the differential tests and
// FuzzParseDifferential hold Parse to it.
func parseReference(uri string, data []byte) (*Document, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	doc := &Document{URI: uri, SourceBytes: int64(len(data))}

	var (
		stack   []*Node
		pre     int32
		post    int32
		pending strings.Builder // accumulated character data
	)

	flushText := func() {
		if pending.Len() == 0 {
			return
		}
		s := pending.String()
		pending.Reset()
		if strings.TrimSpace(s) == "" {
			return
		}
		if len(stack) == 0 {
			return // character data outside the root: ignore
		}
		parent := stack[len(stack)-1]
		pre++
		post++
		n := &Node{
			Kind:   Text,
			Text:   s,
			ID:     NodeID{Pre: pre, Post: post, Depth: parent.ID.Depth + 1},
			Parent: parent,
		}
		parent.Children = append(parent.Children, n)
		doc.nodes = append(doc.nodes, n)
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parsing %s: %w", uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flushText()
			if doc.Root != nil && len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parsing %s: multiple root elements", uri)
			}
			var parent *Node
			depth := int32(1)
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
				depth = parent.ID.Depth + 1
			}
			pre++
			el := &Node{
				Kind:   Element,
				Label:  t.Name.Local,
				ID:     NodeID{Pre: pre, Depth: depth},
				Parent: parent,
			}
			if parent != nil {
				parent.Children = append(parent.Children, el)
			} else {
				doc.Root = el
			}
			doc.nodes = append(doc.nodes, el)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				pre++
				post++
				an := &Node{
					Kind:   Attribute,
					Label:  a.Name.Local,
					Text:   a.Value,
					ID:     NodeID{Pre: pre, Post: post, Depth: depth + 1},
					Parent: el,
				}
				el.Children = append(el.Children, an)
				doc.nodes = append(doc.nodes, an)
			}
			stack = append(stack, el)
		case xml.EndElement:
			flushText()
			el := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			post++
			el.ID.Post = post
		case xml.CharData:
			pending.Write(t)
		default:
			// Comments, directives and processing instructions carry no
			// indexable content.
		}
	}
	if doc.Root == nil {
		return nil, fmt.Errorf("%w: %s", ErrEmptyDocument, uri)
	}
	return doc, nil
}

// contentReference is Content as it was before writeXML wrote its escapes
// straight into the builder, moved here verbatim: encoding/xml's EscapeText
// over a copy of every value, and a list of every element's non-attribute
// children. checkAgainstReference holds Content to it on every accepted
// input.
func contentReference(n *Node) string {
	var b strings.Builder
	writeXMLReference(n, &b)
	return b.String()
}

func writeXMLReference(n *Node, b *strings.Builder) {
	switch n.Kind {
	case Text:
		xml.EscapeText(b, []byte(n.Text))
	case Attribute:
		b.WriteString(n.Label)
		b.WriteString(`="`)
		xml.EscapeText(b, []byte(n.Text))
		b.WriteString(`"`)
	case Element:
		b.WriteString("<")
		b.WriteString(n.Label)
		var rest []*Node
		for _, c := range n.Children {
			if c.Kind == Attribute {
				b.WriteString(" ")
				writeXMLReference(c, b)
			} else {
				rest = append(rest, c)
			}
		}
		if len(rest) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteString(">")
		for _, c := range rest {
			writeXMLReference(c, b)
		}
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteString(">")
	}
}
