package fleet

import "repro/internal/metrics"

// Fleet-runner metrics, registered on the process-wide registry at
// init. Handles are package-level so the per-event sink path is a bare
// atomic increment (zero allocations; see BenchmarkCounterInc).
var (
	mDevices = metrics.NewCounter("fleet_devices_simulated_total",
		"Devices whose full measurement window has been simulated.")
	mShardsStarted = metrics.NewCounter("fleet_shards_started_total",
		"Worker shards launched by fleet.Run.")
	mShardsDone = metrics.NewCounter("fleet_shards_completed_total",
		"Worker shards that finished (including failed ones).")
	mShardsActive = metrics.NewGauge("fleet_shards_active",
		"Worker shards currently simulating.")
	mEvents = metrics.NewCounter("fleet_events_recorded_total",
		"Failure events delivered to the shard sinks (post-filter).")
	mSimEvents = metrics.NewCounter("fleet_sim_events_total",
		"Discrete-event scheduler events executed across all shards.")
	mUploadRetries = metrics.NewCounter("fleet_upload_flush_retries_total",
		"End-of-shard uploader flushes that had to be retried.")
	mShardSeconds = metrics.NewHistogram("fleet_shard_walltime_seconds",
		"Wall-clock seconds one shard took to simulate its device range.")
	mRunSeconds = metrics.NewHistogram("fleet_run_walltime_seconds",
		"Wall-clock seconds for a whole fleet.Run.")
	mQueueDepth = metrics.NewGaugeVec("fleet_shard_queue_depth",
		"Pending event-queue length per shard, set after each device is planned.", "shard")
)
