package epoch

import (
	"coskq/internal/core"
	"coskq/internal/irtree"
	"coskq/internal/metrics"
)

// storeMetrics are the coskq_epoch_* series. When the seed engine
// carries a metrics sink they register in its registry and show up on
// /metrics; otherwise they register on a private one and count there.
type storeMetrics struct {
	generation     *metrics.Gauge   // coskq_epoch_generation
	editsSince     *metrics.Gauge   // coskq_epoch_edits_since_repack
	treeNodes      *metrics.Gauge   // coskq_epoch_tree_nodes
	treeHeight     *metrics.Gauge   // coskq_epoch_tree_height
	pinnedReaders  *metrics.Gauge   // coskq_epoch_pinned_readers
	backlog        *metrics.Gauge   // coskq_epoch_backlog_ops
	mutations      *metrics.Counter // coskq_epoch_mutations_total
	applies        *metrics.Counter // coskq_epoch_applies_total
	applyFailures  *metrics.Counter // coskq_epoch_apply_failures_total
	repacks        *metrics.Counter // coskq_epoch_repacks_total
	backlogRejects *metrics.Counter // coskq_epoch_backlog_rejects_total
	seqReplays     *metrics.Counter // coskq_epoch_seq_replays_total
}

func (m *storeMetrics) init(eng *core.Engine) {
	reg := metrics.NewRegistry()
	if eng != nil && eng.Metrics != nil {
		reg = eng.Metrics.Registry()
	}
	m.generation = reg.Gauge("coskq_epoch_generation")
	m.editsSince = reg.Gauge("coskq_epoch_edits_since_repack")
	m.treeNodes = reg.Gauge("coskq_epoch_tree_nodes")
	m.treeHeight = reg.Gauge("coskq_epoch_tree_height")
	m.pinnedReaders = reg.Gauge("coskq_epoch_pinned_readers")
	m.backlog = reg.Gauge("coskq_epoch_backlog_ops")
	m.mutations = reg.Counter("coskq_epoch_mutations_total")
	m.applies = reg.Counter("coskq_epoch_applies_total")
	m.applyFailures = reg.Counter("coskq_epoch_apply_failures_total")
	m.repacks = reg.Counter("coskq_epoch_repacks_total")
	m.backlogRejects = reg.Counter("coskq_epoch_backlog_rejects_total")
	m.seqReplays = reg.Counter("coskq_epoch_seq_replays_total")
}

// published records the generation just made current and the health of
// its tree: how far it has been edited away from the last bulk load, and
// its live node count and height.
func (m *storeMetrics) published(gen uint64, tree *irtree.Tree, editsSinceRepack int) {
	m.generation.Set(float64(gen))
	m.editsSince.Set(float64(editsSinceRepack))
	m.treeNodes.Set(float64(tree.Nodes()))
	m.treeHeight.Set(float64(tree.Height()))
}

// pinGauge returns the pinned-readers gauge as the delta hook every
// Generation carries, so Pin/Unpin stay decoupled from the store.
func (m *storeMetrics) pinGauge() func(float64) {
	g := m.pinnedReaders
	return func(d float64) { g.Add(d) }
}
