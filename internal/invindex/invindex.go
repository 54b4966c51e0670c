// Package invindex provides a flat inverted index over a geo-textual
// dataset: keyword → posting list of object ids. It is the access path of
// the shard data plane (shard.EngineBackend answers NN and Collect from
// Postings) and backs the keyword frequency ranking the query generator
// draws its percentile band from. No solver in internal/core reads it:
// core.Engine carries one for the facade and the data plane.
package invindex

import (
	"sort"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
)

// Index maps every keyword to the ascending list of objects containing it.
type Index struct {
	ds       *dataset.Dataset
	postings map[kwds.ID][]dataset.ObjectID
}

// Build constructs the index over ds in one pass.
func Build(ds *dataset.Dataset) *Index {
	idx := &Index{ds: ds, postings: make(map[kwds.ID][]dataset.ObjectID)}
	for i := range ds.Objects {
		o := &ds.Objects[i]
		for _, kw := range o.Keywords {
			idx.postings[kw] = append(idx.postings[kw], o.ID)
		}
	}
	return idx
}

// Postings returns the objects containing kw in ascending id order.
// The returned slice is shared and must not be modified.
func (idx *Index) Postings(kw kwds.ID) []dataset.ObjectID {
	return idx.postings[kw]
}

// Frequency returns the number of objects containing kw.
func (idx *Index) Frequency(kw kwds.ID) int {
	return len(idx.postings[kw])
}

// ByFrequency returns all keywords with non-empty postings sorted by
// descending frequency (ties toward smaller id). This is the ranking the
// paper's query generator draws its percentile band from.
func (idx *Index) ByFrequency() []kwds.ID {
	out := make([]kwds.ID, 0, len(idx.postings))
	for kw := range idx.postings {
		out = append(out, kw)
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := len(idx.postings[out[i]]), len(idx.postings[out[j]])
		if fi != fj {
			return fi > fj
		}
		return out[i] < out[j]
	})
	return out
}

// Relevant returns the distinct objects containing at least one keyword of
// q, in ascending id order.
func (idx *Index) Relevant(q kwds.Set) []dataset.ObjectID {
	seen := map[dataset.ObjectID]bool{}
	var out []dataset.ObjectID
	for _, kw := range q {
		for _, id := range idx.postings[kw] {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
