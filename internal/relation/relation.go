// Package relation ties a schema to a physical organization — a clustered
// B+-tree (R1's access method) or a static hash file (R2's and R3's) — and
// provides the catalog mapping names to relations.
package relation

import (
	"fmt"

	"dbproc/internal/btree"
	"dbproc/internal/hashidx"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// Relation is a named, schema'd table with exactly one primary
// organization.
type Relation struct {
	schema *tuple.Schema

	// Exactly one of the following is non-nil.
	tree *btree.Tree
	hash *hashidx.Table

	// For B-tree relations: the clustering attribute and the unique tuple
	// id attribute composed into the ordering key.
	clusterField int
	idField      int
	// For hash relations: the hashed attribute.
	hashField int
}

// NewBTree creates an empty B-tree-organized relation clustered on
// clusterField, with idField (a unique tuple id) as the key tiebreaker.
// indexEntrySize is the paper's d.
func NewBTree(disk *storage.Disk, schema *tuple.Schema, clusterField, idField string, indexEntrySize int) *Relation {
	r := &Relation{
		schema:       schema,
		clusterField: schema.MustFieldIndex(clusterField),
		idField:      schema.MustFieldIndex(idField),
	}
	r.tree = btree.New(disk, schema.Width(), indexEntrySize, r.treeKey())
	return r
}

// BulkLoadBTree creates a B-tree relation from tuples already sorted by
// (clusterField, idField), packing pages completely full.
func BulkLoadBTree(pg *storage.Pager, schema *tuple.Schema, clusterField, idField string, indexEntrySize int, tuples [][]byte) *Relation {
	return BulkLoadBTreeFunc(pg, schema, clusterField, idField, indexEntrySize, len(tuples), func(i int, tup []byte) {
		if len(tuples[i]) != len(tup) {
			panic(fmt.Sprintf("relation: tuple %d has %d bytes, want %d", i, len(tuples[i]), len(tup)))
		}
		copy(tup, tuples[i])
	})
}

// BulkLoadBTreeFunc is BulkLoadBTree for n tuples that fill writes
// straight into the packed leaves: fill(i, tup) sets tuple i's attributes
// in tup, a zeroed schema-width slot on a leaf page, in ascending i. The
// tuples must ascend by (clusterField, idField) with i.
func BulkLoadBTreeFunc(pg *storage.Pager, schema *tuple.Schema, clusterField, idField string, indexEntrySize, n int, fill func(i int, tup []byte)) *Relation {
	r := &Relation{
		schema:       schema,
		clusterField: schema.MustFieldIndex(clusterField),
		idField:      schema.MustFieldIndex(idField),
	}
	r.tree = btree.BulkLoadFunc(pg, schema.Width(), indexEntrySize, r.treeKey(), n, func(i int, tup []byte) {
		fill(i, tup)
		r.Key(tup) // range-checks the key parts
	})
	return r
}

// treeKey tells the B-tree where Key's two halves sit in a tuple, so leaf
// probes read them in place: attribute i is the little-endian int64 at
// byte 8*i, and both parts fit 32 bits (Key checks that on the way in).
func (r *Relation) treeKey() btree.Key {
	return btree.Key{Hi: 8 * r.clusterField, Lo: 8 * r.idField}
}

// NewHash creates an empty hash-organized relation on hashField with the
// given number of primary buckets.
func NewHash(disk *storage.Disk, schema *tuple.Schema, hashField string, buckets int) *Relation {
	r := &Relation{
		schema:    schema,
		hashField: schema.MustFieldIndex(hashField),
	}
	r.hash = hashidx.New(disk, schema.Width(), buckets, 8*r.hashField)
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *tuple.Schema { return r.schema }

// Tree returns the B-tree organization, or nil for hash relations.
func (r *Relation) Tree() *btree.Tree { return r.tree }

// Hash returns the hash organization, or nil for B-tree relations.
func (r *Relation) Hash() *hashidx.Table { return r.hash }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.tree != nil {
		return r.tree.Len()
	}
	return r.hash.Len()
}

// Key returns the clustering key of a tuple of a B-tree relation:
// ClusterKey(clusterField value, id value).
func (r *Relation) Key(tup []byte) uint64 {
	if r.hash != nil {
		panic("relation: Key on a hash relation")
	}
	return tuple.ClusterKey(r.schema.Get(tup, r.clusterField), r.schema.Get(tup, r.idField))
}

// ClusterField returns the index of the clustering attribute (B-tree
// relations only).
func (r *Relation) ClusterField() int { return r.clusterField }

// IDField returns the index of the tuple-id attribute (B-tree relations
// only).
func (r *Relation) IDField() int { return r.idField }

// HashField returns the index of the hashed attribute (hash relations
// only).
func (r *Relation) HashField() int { return r.hashField }

// KeyField returns the index of the attribute the primary organization
// indexes on: the clustering attribute for B-tree relations, the hashed
// attribute for hash relations. I-lock conflict checks route on this
// attribute's values.
func (r *Relation) KeyField() int {
	if r.hash != nil {
		return r.hashField
	}
	return r.clusterField
}

// Insert adds a tuple to the relation's primary organization, charging
// I/O to the calling session's pager.
func (r *Relation) Insert(pg *storage.Pager, tup []byte) {
	if r.tree != nil {
		r.Key(tup) // range-checks the key parts the tree reads in place
		r.tree.Insert(pg, tup)
		return
	}
	r.hash.Insert(pg, tup)
}

// DeleteKeyed removes the B-tree tuple with the given cluster key.
func (r *Relation) DeleteKeyed(pg *storage.Pager, key uint64) bool {
	if r.tree == nil {
		panic("relation: DeleteKeyed on a hash relation")
	}
	return r.tree.Delete(pg, key)
}

// Catalog maps relation names to relations.
type Catalog struct {
	rels map[string]*Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: make(map[string]*Relation)}
}

// Define registers a relation under its schema name; redefining panics.
func (c *Catalog) Define(r *Relation) {
	name := r.Schema().Name()
	if _, dup := c.rels[name]; dup {
		panic(fmt.Sprintf("relation: %q already defined", name))
	}
	c.rels[name] = r
}

// Lookup returns the named relation, or nil.
func (c *Catalog) Lookup(name string) *Relation { return c.rels[name] }

// MustLookup returns the named relation or panics.
func (c *Catalog) MustLookup(name string) *Relation {
	r := c.rels[name]
	if r == nil {
		panic(fmt.Sprintf("relation: %q not defined", name))
	}
	return r
}

// Names returns the defined relation names in unspecified order.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for name := range c.rels {
		out = append(out, name)
	}
	return out
}
