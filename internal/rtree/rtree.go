// Package rtree is a shim over the STR packing in package irtree, kept
// only for the benchmark harness's rtree.bulk_load rung. New code calls
// irtree.Pack.
package rtree

import "coskq/internal/irtree"

// Entry is a leaf payload: an indexed point and its object id.
type Entry = irtree.Entry

// BulkLoad returns irtree.Pack(entries, maxEntries).
func BulkLoad(entries []Entry, maxEntries int) *irtree.Tree {
	return irtree.Pack(entries, maxEntries)
}
