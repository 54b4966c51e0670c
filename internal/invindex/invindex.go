// Package invindex provides a flat inverted index over a geo-textual
// dataset: keyword → posting list of object ids. It is the access path of
// the shard data plane (shard.EngineBackend answers NN and Collect from
// Postings) and backs the keyword frequency ranking the query generator
// draws its percentile band from. No solver in internal/core reads it:
// core.Engine carries one for the facade and the data plane.
//
// An Index is immutable once built. The live index (internal/epoch) gets
// its next one from an Editor, which copies only the posting lists a batch
// touches and shares the rest.
package invindex

import (
	"slices"
	"sort"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
)

// Index maps every keyword to the ascending list of objects containing it.
type Index struct {
	postings [][]dataset.ObjectID // by keyword id; nil for a word no object carries
}

// Build constructs the index over ds in one pass.
func Build(ds *dataset.Dataset) *Index {
	idx := &Index{postings: make([][]dataset.ObjectID, len(ds.Vocab.Words()))}
	for i := range ds.Objects {
		o := &ds.Objects[i]
		for _, kw := range o.Keywords {
			idx.postings[kw] = append(idx.postings[kw], o.ID)
		}
	}
	return idx
}

// Editor derives the next Index from a built one, copy-on-write per
// posting list: the base index and every list it shares are only read.
type Editor struct {
	*Index        // the index under construction: its own list table over the base's lists
	owned  []bool // by keyword id: the list is this editor's copy and may be written
}

// Edit starts an editor over idx. Until Done, the editor reads (Postings,
// Frequency) as the index it has built so far.
func (idx *Index) Edit() *Editor {
	return &Editor{Index: &Index{postings: slices.Clone(idx.postings)}, owned: make([]bool, len(idx.postings))}
}

// own returns kw's list as the editor's own copy, growing the keyword
// range for a word the base never saw.
func (e *Editor) own(kw kwds.ID) []dataset.ObjectID {
	if grow := int(kw) + 1 - len(e.postings); grow > 0 {
		e.postings = append(e.postings, make([][]dataset.ObjectID, grow)...)
		e.owned = append(e.owned, make([]bool, grow)...)
	}
	if !e.owned[kw] {
		e.owned[kw] = true
		e.postings[kw] = append(make([]dataset.ObjectID, 0, len(e.postings[kw])+1), e.postings[kw]...)
	}
	return e.postings[kw]
}

// Add puts id on kw's list, keeping it ascending.
func (e *Editor) Add(kw kwds.ID, id dataset.ObjectID) {
	list := e.own(kw)
	at, _ := slices.BinarySearch(list, id)
	e.postings[kw] = slices.Insert(list, at, id)
}

// Remove takes id off kw's list; a list left empty reads as a word no
// object carries.
func (e *Editor) Remove(kw kwds.ID, id dataset.ObjectID) {
	list := e.own(kw)
	if at, ok := slices.BinarySearch(list, id); ok {
		e.postings[kw] = slices.Delete(list, at, at+1)
	}
}

// Touched returns the keywords whose lists the editor copied, ascending.
func (e *Editor) Touched() []kwds.ID {
	var out []kwds.ID
	for kw, own := range e.owned {
		if own {
			out = append(out, kwds.ID(kw))
		}
	}
	return out
}

// Done returns the derived index. The editor must not be used afterwards.
func (e *Editor) Done() *Index { return e.Index }

// Postings returns the objects containing kw in ascending id order.
// The returned slice is shared and must not be modified.
func (idx *Index) Postings(kw kwds.ID) []dataset.ObjectID {
	if int(kw) >= len(idx.postings) {
		return nil
	}
	return idx.postings[kw]
}

// Frequency returns the number of objects containing kw.
func (idx *Index) Frequency(kw kwds.ID) int {
	return len(idx.Postings(kw))
}

// ByFrequency returns all keywords with non-empty postings sorted by
// descending frequency (ties toward smaller id). This is the ranking the
// paper's query generator draws its percentile band from.
func (idx *Index) ByFrequency() []kwds.ID {
	out := make([]kwds.ID, 0, len(idx.postings))
	for kw, list := range idx.postings {
		if len(list) > 0 {
			out = append(out, kwds.ID(kw))
		}
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
		for _, id := range idx.Postings(kw) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
