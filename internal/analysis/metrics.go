package analysis

import "repro/internal/metrics"

// Pass metrics, counted by merge on every road to a Pass (NewPass,
// Simulate, Fold.Pass): one pass may feed many figures, so throughput here
// is what every figure's cost comes down to.
var (
	mPasses = metrics.NewCounter("analysis_passes_total",
		"Passes merged from folds.")
	mPassSeconds = metrics.NewHistogram("analysis_pass_seconds",
		"Wall-clock seconds per pass, from its first fold's start to the end of the merge (visit, merge, and sorting the samples).")
	mEventsVisited = metrics.NewCounter("analysis_events_visited_total",
		"Events folded into passes.")
	mEventsPerSec = metrics.NewGauge("analysis_events_per_second",
		"Event throughput of the most recent pass.")
	mPassWorkers = metrics.NewGauge("analysis_pass_workers",
		"Folds merged into the most recent pass.")
)

// Live (streaming) engine metrics: the ingest-path accumulators that keep
// figures current while the fleet is still uploading.
var (
	mLiveEvents = metrics.NewCounter("analysis_live_events_total",
		"Events applied to the streaming accumulators.")
	mLiveChunks = metrics.NewCounter("analysis_live_chunks_total",
		"Event chunks applied to the streaming accumulators.")
	mLiveDrains = metrics.NewCounter("analysis_live_drains_total",
		"Batches the streaming applier took off the hand-off queue: chunks per drain is how much one wake applies.")
	mLiveQueueDepth = metrics.NewGauge("analysis_live_queue_depth",
		"Chunks waiting in the streaming hand-off queue.")
	mLiveQueueEvents = metrics.NewGauge("analysis_live_queue_events",
		"Events handed to the streaming engine and not yet applied: how far live trails ingest.")
	mLiveLateDrops = metrics.NewCounter("analysis_live_window_late_total",
		"Window-accumulator events older than the sliding-window floor.")
	mLiveQueries = metrics.NewCounter("analysis_live_queries_total",
		"Live figure/claims/window snapshot queries served.")
	mLiveRenderSeconds = metrics.NewHistogram("analysis_live_render_seconds",
		"Seconds a live figures/claims render held the engine's state lock (the applier waits that long).")
)
