package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"hiengine/internal/index"
	"hiengine/internal/pia"
)

// Column describes one table column.
type Column struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
}

// IndexDef describes one index: the ordered set of column positions forming
// the key. Index 0 of a table is the primary key and must be unique.
type IndexDef struct {
	Name    string `json:"name"`
	Columns []int  `json:"columns"` // positions into Schema.Columns
	Unique  bool   `json:"unique"`
}

// Schema describes a table.
type Schema struct {
	Name    string     `json:"name"`
	Columns []Column   `json:"columns"`
	Indexes []IndexDef `json:"indexes"` // [0] is the primary key
}

// Validate checks structural sanity.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("core: schema missing name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("core: table %q has no columns", s.Name)
	}
	if len(s.Indexes) == 0 {
		return fmt.Errorf("core: table %q has no primary key", s.Name)
	}
	if !s.Indexes[0].Unique {
		return fmt.Errorf("core: table %q primary index must be unique", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" || seen[c.Name] {
			return fmt.Errorf("core: table %q has duplicate/empty column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	for _, ix := range s.Indexes {
		if len(ix.Columns) == 0 {
			return fmt.Errorf("core: index %q has no columns", ix.Name)
		}
		for _, c := range ix.Columns {
			if c < 0 || c >= len(s.Columns) {
				return fmt.Errorf("core: index %q references column %d of %d", ix.Name, c, len(s.Columns))
			}
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// marshal serializes the schema for the manifest.
func (s *Schema) marshal() ([]byte, error) { return json.Marshal(s) }

func unmarshalSchema(b []byte) (*Schema, error) {
	var s Schema
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Table is one HiEngine table: a schema, a partitioned indirection array
// mapping RIDs to version chains, and the table's indexes.
type Table struct {
	ID     uint32
	Schema *Schema

	rows    *pia.Map[Version]
	indexes []*index.Index

	// liveRows approximates the visible row count (diagnostics only).
	liveRows atomic.Int64

	// dropsBegun and dropsEnded count, as each starts and as it ends, the
	// passes that take index entries out while they make the chain under
	// them look like one version: GC unlinking a version whose keys changed
	// (drop, then prune) and an abort uninstalling a write (uninstall, then
	// drop). A scan that skips verifying an entry on a one-version chain
	// relies on them (scanBatch.mayBeStale). They get a cache line of their
	// own, off liveRows' writers.
	_          [56]byte
	dropsBegun atomic.Uint64
	dropsEnded atomic.Uint64
}

// RID is re-exported for callers of the engine API.
type RID = pia.RID

// Rows exposes the table's indirection map (used by checkpoint, recovery,
// compaction and tests).
func (t *Table) Rows() *pia.Map[Version] { return t.rows }

// Index returns index i (0 = primary).
func (t *Table) Index(i int) *index.Index { return t.indexes[i] }

// indexPos returns the position of ix within the table's indexes, or -1.
func (t *Table) indexPos(ix *index.Index) int {
	for i, x := range t.indexes {
		if x == ix {
			return i
		}
	}
	return -1
}

// LiveRows returns the approximate visible row count.
func (t *Table) LiveRows() int64 { return t.liveRows.Load() }

// viewIndexKeyAppend appends the physical index-idx key of an encoded row:
// unique indexes use the encoded key directly; non-unique indexes append the
// RID so every entry is unique.
func (t *Table) viewIndexKeyAppend(buf []byte, idx int, v *RowView, rid RID) ([]byte, error) {
	def := t.Schema.Indexes[idx]
	k, err := v.AppendKey(buf, def.Columns)
	if err != nil {
		return nil, fmt.Errorf("core: row too short for index %q", def.Name)
	}
	if !def.Unique {
		k = EncodeRIDSuffix(k, uint64(rid))
	}
	return k, nil
}
