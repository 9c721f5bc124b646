package trace

import "repro/internal/metrics"

// Trace-pipeline metrics: the device-side uploader and the backend
// collector. Counters are process-wide (all uploaders/collectors in the
// process share them), matching how a deployment would scrape one
// exporter per process.
var (
	mUpBatches = metrics.NewCounter("trace_uploader_batches_total",
		"Batches successfully uploaded and acknowledged.")
	mUpEvents = metrics.NewCounter("trace_uploader_events_total",
		"Events successfully uploaded.")
	mUpBytes = metrics.NewCounter("trace_uploader_bytes_total",
		"Wire bytes successfully uploaded (post-compression).")
	mUpRetries = metrics.NewCounter("trace_uploader_flush_retries_total",
		"Flush attempts that failed (dial, write, or ack), leaving events buffered for retry.")
	mColBatches = metrics.NewCounter("trace_collector_batches_accepted_total",
		"Batches decoded, stored, and acknowledged by collectors.")
	mColEvents = metrics.NewCounter("trace_collector_events_decoded_total",
		"Events decoded out of accepted batches.")
	mColDropped = metrics.NewCounter("trace_collector_batches_dropped_total",
		"Connections dropped on a malformed or truncated batch read, or on a failed durable append.")
	mColRxBytes = metrics.NewCounter("trace_collector_rx_bytes_total",
		"Wire bytes received by collectors (length prefix plus compressed payload).")
	mDatasetEvents = metrics.NewGauge("trace_dataset_events",
		"Events in the collector's dataset: its boot replay, then every admitted batch.")
	mUploadSeconds = metrics.NewHistogram("trace_upload_seconds",
		"Wall-clock seconds per successful batch upload (dial through ack).")
	mUpBackoffTotal = metrics.NewCounter("trace_uploader_backoff_total",
		"Failed flushes that armed the exponential-backoff timer.")
	mUpBackoffSeconds = metrics.NewHistogram("trace_uploader_backoff_seconds",
		"Backoff delay armed after each failed flush, in seconds.")
	mUpBackoffSuppressed = metrics.NewCounter("trace_uploader_backoff_suppressed_total",
		"Best-effort flushes skipped because the backoff timer had not expired.")
	mUpSpilled = metrics.NewCounter("trace_uploader_spilled_events_total",
		"Events moved from the in-memory buffer to the on-disk spill WAL.")
	mUpDropped = metrics.NewCounter("trace_uploader_dropped_events_total",
		"Events dropped oldest-first because the buffer cap was hit with no spill WAL.")
	mColDedupHits = metrics.NewCounter("trace_collector_dedup_hits_total",
		"Re-sent batches acknowledged without re-appending (per-device seq dedup).")
	mColNacks = metrics.NewCounter("trace_collector_nacks_total",
		"Connections shed with a retry-after nack because the connection cap was reached.")
	mColOpenConns = metrics.NewGauge("trace_collector_open_connections",
		"Connections currently served by collectors in this process.")
	mHTTPEncodeErrors = metrics.NewCounter("trace_http_encode_errors_total",
		"JSON encode failures while writing query-API responses (client gone or unmarshalable value).")
	mSegAppends = metrics.NewCounter("trace_segstore_batches_appended_total",
		"Batches durably appended to the collector's segment store.")
	mSegBytes = metrics.NewCounter("trace_segstore_bytes_written_total",
		"Frame bytes appended to segment files.")
	mSegSealed = metrics.NewCounter("trace_segstore_segments_sealed_total",
		"Segments sealed (made immutable) after crossing the size threshold or at close.")
	mSegCheckpoints = metrics.NewCounter("trace_segstore_checkpoints_total",
		"Mark/index checkpoints written (at open, seal, close and takeover).")
	mSegReplayed = metrics.NewCounter("trace_segstore_batches_replayed_total",
		"Batches replayed from segment files while reopening a store.")
	mSegTruncated = metrics.NewCounter("trace_segstore_truncated_bytes_total",
		"Torn-tail bytes dropped when reopening a store after a crash (always an unacked final frame).")
	mUpReroutes = metrics.NewCounter("trace_uploader_reroutes_total",
		"Uploader target switches: Retarget calls (direct or router-driven) that changed the collector address.")
	mColTakeover = metrics.NewCounter("trace_collector_takeover_devices",
		"Devices whose acked high-water marks a surviving collector inherited from a dead collector's store (SeedMarks).")
)
