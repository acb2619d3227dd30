// Package tuple defines fixed-width tuples and their schemas. The paper's
// model uses S-byte tuples throughout (base relations and procedure
// results alike), but it only ever uses S through the blocking factor
// ⌊B/S⌋: its costs count pages, never bytes. A Schema therefore carries
// two sizes. Width is the model's S, and sets how many records every
// page-structured file puts on a page (PerPage). Size is what a record
// occupies in memory and in a page image: its int64 attributes, packed,
// with none of the padding up to S.
package tuple

import (
	"encoding/binary"
	"fmt"
)

// Field describes one named attribute of a schema. All attributes are
// int64s, stored little-endian; the paper's predicates (attribute op
// constant, attribute op attribute) only need ordered numeric values.
type Field struct {
	// Name identifies the attribute, e.g. "skey" or "salary".
	Name string
}

// Schema describes the layout of a fixed-width tuple: len(Fields) int64
// attributes at offsets 0, 8, 16, ..., Size bytes in all, standing for a
// tuple of Width bytes in the cost model.
type Schema struct {
	name   string
	fields []Field
	width  int
	byName map[string]int
}

// NewSchema builds a schema with the given model width S and attributes.
// The attributes must fit in the width and names must be unique.
func NewSchema(name string, width int, fields ...Field) *Schema {
	if width < 8*len(fields) {
		panic(fmt.Sprintf("tuple: %d fields need %d bytes, width is %d", len(fields), 8*len(fields), width))
	}
	if len(fields) == 0 {
		panic("tuple: schema needs at least one field")
	}
	byName := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			panic("tuple: empty field name")
		}
		if _, dup := byName[f.Name]; dup {
			panic("tuple: duplicate field name " + f.Name)
		}
		byName[f.Name] = i
	}
	return &Schema{name: name, fields: append([]Field(nil), fields...), width: width, byName: byName}
}

// Name returns the schema's name.
func (s *Schema) Name() string { return s.name }

// Width returns the tuple width in bytes (the paper's S). It sets the
// blocking factor and nothing else; see Size.
func (s *Schema) Width() int { return s.width }

// Size returns the bytes a tuple occupies: 8 per attribute.
func (s *Schema) Size() int { return 8 * len(s.fields) }

// PerPage returns the blocking factor ⌊B/S⌋ for pages of pageSize bytes:
// how many of these tuples a page holds in the cost model.
func (s *Schema) PerPage(pageSize int) int { return pageSize / s.width }

// NumFields returns the number of attributes.
func (s *Schema) NumFields() int { return len(s.fields) }

// FieldName returns the name of attribute i.
func (s *Schema) FieldName(i int) string { return s.fields[i].Name }

// FieldIndex returns the index of the named attribute, or -1.
func (s *Schema) FieldIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustFieldIndex is FieldIndex but panics on an unknown name.
func (s *Schema) MustFieldIndex(name string) int {
	i := s.FieldIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("tuple: schema %q has no field %q", s.name, name))
	}
	return i
}

// New returns a zeroed tuple of this schema, Size bytes long.
func (s *Schema) New() []byte { return make([]byte, s.Size()) }

// Get reads attribute i from tup.
func (s *Schema) Get(tup []byte, i int) int64 {
	s.check(tup, i)
	return int64(binary.LittleEndian.Uint64(tup[8*i:]))
}

// Set writes attribute i of tup.
func (s *Schema) Set(tup []byte, i int, v int64) {
	s.check(tup, i)
	binary.LittleEndian.PutUint64(tup[8*i:], uint64(v))
}

// GetByName reads the named attribute.
func (s *Schema) GetByName(tup []byte, name string) int64 {
	return s.Get(tup, s.MustFieldIndex(name))
}

// SetByName writes the named attribute.
func (s *Schema) SetByName(tup []byte, name string, v int64) {
	s.Set(tup, s.MustFieldIndex(name), v)
}

func (s *Schema) check(tup []byte, i int) {
	if len(tup) != s.Size() {
		panic(fmt.Sprintf("tuple: %d-byte tuple for %d-byte schema %q", len(tup), s.Size(), s.name))
	}
	if i < 0 || i >= len(s.fields) {
		panic(fmt.Sprintf("tuple: field %d out of range in schema %q", i, s.name))
	}
}

// String formats a tuple's attributes for debugging.
func (s *Schema) String(tup []byte) string {
	out := s.name + "("
	for i, f := range s.fields {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%d", f.Name, s.Get(tup, i))
	}
	return out + ")"
}

// Concat builds the schema of a join result: left's attributes (names
// unchanged) followed by right's attributes with rightPrefix prepended, in
// a tuple of the given model width. The paper keeps result tuples at the
// same S-byte width as base tuples, so the combined attributes must fit
// within width; joins of narrow attribute sets into S = 100 bytes always
// do.
func Concat(name string, width int, left *Schema, right *Schema, rightPrefix string) *Schema {
	fields := make([]Field, 0, left.NumFields()+right.NumFields())
	for _, f := range left.fields {
		fields = append(fields, f)
	}
	for _, f := range right.fields {
		fields = append(fields, Field{Name: rightPrefix + f.Name})
	}
	return NewSchema(name, width, fields...)
}

// ClusterKey packs an attribute value and a unique tuple id into a single
// uint64 ordering key: tuples sort by value first, id second. Both must be
// non-negative and fit 32 bits, plenty for the paper's N = 100,000.
func ClusterKey(value, id int64) uint64 {
	if value < 0 || value > 0xFFFFFFFF || id < 0 || id > 0xFFFFFFFF {
		panic(fmt.Sprintf("tuple: cluster key parts out of range: value=%d id=%d", value, id))
	}
	return uint64(value)<<32 | uint64(id)
}

// ClusterKeyValue extracts the attribute value from a cluster key.
func ClusterKeyValue(key uint64) int64 { return int64(key >> 32) }

// ClusterKeyID extracts the tuple id from a cluster key.
func ClusterKeyID(key uint64) int64 { return int64(key & 0xFFFFFFFF) }

// MinKeyFor and MaxKeyFor bound the cluster keys of all tuples whose
// attribute value lies in [lo, hi].
func MinKeyFor(lo int64) uint64 { return ClusterKey(lo, 0) }

// MaxKeyFor returns the largest cluster key for attribute value hi.
func MaxKeyFor(hi int64) uint64 { return ClusterKey(hi, 0xFFFFFFFF) }
