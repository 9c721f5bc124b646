package trace

import (
	"slices"

	"repro/internal/failure"
)

// NumShards reports one: the dataset is a single segment list.
//
// Deprecated: only bench/ calls this; ROADMAP item 1 deletes it.
func (d *Dataset) NumShards() int { return 1 }

// EachShard is Each; the shard index is ignored.
//
// Deprecated: only bench/ calls this; ROADMAP item 1 deletes it.
func (d *Dataset) EachShard(_ int, fn func(*failure.Event)) { d.Each(fn) }

// AppendShard publishes a copy of events; the shard index is ignored.
//
// Deprecated: only bench/ calls this; ROADMAP item 1 deletes it.
func (d *Dataset) AppendShard(_ int, events ...failure.Event) { d.Publish(slices.Clone(events)) }
