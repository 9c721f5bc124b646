package analysis

import "repro/internal/metrics"

// Engine metrics: one pass may feed many figures, so throughput here is
// what every figure's cost comes down to.
var (
	mPasses = metrics.NewCounter("analysis_passes_total",
		"Single-pass engine executions over a dataset.")
	mPassSeconds = metrics.NewHistogram("analysis_pass_seconds",
		"Wall-clock seconds per engine pass (visit, merge, and sorting the samples).")
	mEventsVisited = metrics.NewCounter("analysis_events_visited_total",
		"Events delivered to visitor sets by the engine.")
	mEventsPerSec = metrics.NewGauge("analysis_events_per_second",
		"Event throughput of the most recent engine pass.")
	mPassWorkers = metrics.NewGauge("analysis_pass_workers",
		"Workers used by the most recent engine pass.")
)

// Live (streaming) engine metrics: the ingest-path accumulators that keep
// figures current while the fleet is still uploading.
var (
	mLiveEvents = metrics.NewCounter("analysis_live_events_total",
		"Events applied to the streaming accumulators.")
	mLiveChunks = metrics.NewCounter("analysis_live_chunks_total",
		"Event chunks handed off from the ingest path.")
	mLiveShed = metrics.NewCounter("analysis_live_chunks_shed_total",
		"Event chunks dropped because the hand-off queue was full.")
	mLiveResyncs = metrics.NewCounter("analysis_live_resyncs_total",
		"Full accumulator rebuilds from the authoritative dataset.")
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
