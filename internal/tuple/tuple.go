package tuple

import (
	"fmt"
	"slices"
	"strings"
)

// Tuple is an immutable named record. Field 0 is the location specifier:
// the address (a string value) of the node where the tuple lives or must
// be delivered. Tuples carry a node-unique ID assigned when they are first
// created on a node; the ID is what the tracer memoizes in tupleTable.
type Tuple struct {
	// Name is the predicate name, e.g. "bestSucc".
	Name string
	// Fields holds the values; Fields[0] is the location specifier.
	Fields []Value
	// ID is the node-unique tuple identifier (0 = unassigned). IDs are
	// local to the node that created or received the tuple.
	ID uint64
}

// New constructs a tuple with the given name and fields.
func New(name string, fields ...Value) Tuple {
	return Tuple{Name: name, Fields: fields}
}

// Loc returns the tuple's location specifier as a string address. It
// returns "" if the tuple has no fields or a non-string first field.
func (t Tuple) Loc() string {
	if len(t.Fields) == 0 || t.Fields[0].Kind() != KindStr {
		return ""
	}
	return t.Fields[0].AsStr()
}

// Arity returns the number of fields, including the location specifier.
func (t Tuple) Arity() int { return len(t.Fields) }

// Field returns the i-th field (0-based; 0 is the location specifier).
func (t Tuple) Field(i int) Value { return t.Fields[i] }

// WithID returns a copy of t carrying the given node-unique ID.
func (t Tuple) WithID(id uint64) Tuple {
	t.ID = id
	return t
}

// Clone returns a copy of t whose fields are its own: what a keeper of
// a borrowed tuple stores.
func (t Tuple) Clone() Tuple {
	t.Fields = slices.Clone(t.Fields)
	return t
}

// Equal reports whether two tuples have the same name and equal fields.
// Tuple IDs are ignored: identity is content-based, IDs are node-local.
func (t Tuple) Equal(o Tuple) bool {
	if t.Name != o.Name || len(t.Fields) != len(o.Fields) {
		return false
	}
	for i := range t.Fields {
		if !t.Fields[i].Equal(o.Fields[i]) {
			return false
		}
	}
	return true
}

// Hash returns a content hash of the tuple (name + fields).
func (t Tuple) Hash() uint64 {
	h := fnvString(FnvOffset64, t.Name)
	h = fnvByte(h, 0)
	for _, f := range t.Fields {
		h = f.hashFold(h)
	}
	return h
}

// KeyHash hashes the subset of fields at the given 1-based positions; it
// is the primary-key hash used by tables. Positions beyond the arity hash
// as nil.
func (t Tuple) KeyHash(keys []int) uint64 {
	h := uint64(FnvOffset64)
	for _, k := range keys {
		if k >= 1 && k <= len(t.Fields) {
			h = t.Fields[k-1].hashFold(h)
		} else {
			h = Nil.hashFold(h)
		}
	}
	return h
}

// KeyEqual reports whether two tuples agree on the fields at the given
// 1-based positions.
func (t Tuple) KeyEqual(o Tuple, keys []int) bool {
	for _, k := range keys {
		var a, b Value
		if k >= 1 && k <= len(t.Fields) {
			a = t.Fields[k-1]
		}
		if k >= 1 && k <= len(o.Fields) {
			b = o.Fields[k-1]
		}
		if !a.Equal(b) {
			return false
		}
	}
	return true
}

// String renders the tuple in OverLog syntax: name@Loc(f1, f2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.Name)
	rest := t.Fields
	if len(t.Fields) > 0 && t.Fields[0].Kind() == KindStr {
		fmt.Fprintf(&b, "@%s", t.Fields[0].AsStr())
		rest = t.Fields[1:]
	}
	b.WriteByte('(')
	for i, f := range rest {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteByte(')')
	return b.String()
}

// SizeBytes estimates the in-memory footprint of the tuple. The estimate
// is the memory metric the benchmark harness reports (see DESIGN.md §4:
// the paper's MB figures are driven by live tuple counts).
func (t Tuple) SizeBytes() int {
	n := 48 + len(t.Name) // header + name
	for _, f := range t.Fields {
		n += f.sizeBytes()
	}
	return n
}

func (v Value) sizeBytes() int {
	n := 40
	switch v.Kind() {
	case KindStr:
		n += len(v.str())
	case KindList:
		for _, e := range v.list() {
			n += e.sizeBytes()
		}
	}
	return n
}
