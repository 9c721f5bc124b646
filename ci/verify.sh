#!/usr/bin/env bash
# ci/verify.sh STAGE: every command CI runs, each listed once. A CI job runs
# one stage; `ci/verify.sh all` runs them all before a push.
#
#   build        build, gofmt, vet, go test, the examples, README's scenario,
#                a run directory through the binaries, the retired flags
#   race         the concurrent packages under -race, then the tests whose
#                promise is an interleaving, repeated (each says why)
#   chaos FILE   one chaos document under -race, reported in chaos-report.txt
#   fuzz         ten seconds of each fuzz target it lists
#   coverage     coverage.out over internal/..., and faultinject's 75 % floor
#   bench-smoke  one iteration of its benchmarks, three samples, in bench.txt
#   all          every stage but chaos, whose documents CI's matrix names
#
# Scratch files go to a temporary directory removed on exit; only the three
# reports above are left in the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
repo="$PWD"
tmp="$(mktemp -d)"
collector=
cleanup() {
	if [ -n "$collector" ]; then
		kill "$collector" 2>/dev/null || true
		wait "$collector" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

usage() {
	echo "usage: ci/verify.sh build|race|fuzz|coverage|bench-smoke|all" >&2
	echo "       ci/verify.sh chaos FILE" >&2
	exit 2
}

build() {
	go build ./...
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		echo "gofmt needed on:" >&2
		echo "$out" >&2
		exit 1
	fi
	go vet ./...
	go test ./...

	# The examples have no other test; each exits 0 in a few seconds, run
	# from the scratch directory, so fleetstudy's store starts empty. So
	# must README's scenario, cut to 200 devices and one month: a documented
	# key that stops parsing fails here, and its outage must inject stalls.
	go build -o "$tmp/examples/" ./examples/...
	for e in quickstart fleetstudy outage ratpolicy stallrecovery; do
		(cd "$tmp" && "examples/$e" >/dev/null)
	done
	sed -n "/^echo '{\"seed\"/,/> s.json$/p" README.md | (cd "$tmp" && sh)
	sed -i 's/"devices":2000,/"devices":200,"months":1,/' "$tmp/s.json"
	grep -q '"devices":200,"months":1,' "$tmp/s.json"
	go run ./cmd/cellsim -o '' "$tmp/s.json" > "$tmp/scenario.txt"
	grep -Eq 'stall-storm +injected=[1-9]' "$tmp/scenario.txt"

	# One run directory through the shipped binaries: a collector booted on
	# it serves the batch figures live (I5), and after its shutdown the
	# segment files keep their bytes and the figures do not change.
	go build -o "$tmp/bin/" ./cmd/cellsim ./cmd/cellanalyze ./cmd/collector ./cmd/cellcheck ./cmd/cellrepro ./cmd/cellsweep
	cd "$tmp"
	bin/cellsim -o run "$repo/scenarios/run-300.json"
	bin/cellanalyze -in run -figures-json a.json
	bin/cellanalyze -in run -claims-json c.json
	bin/cellanalyze -in run -jsonl ev.jsonl
	sha256sum run/seg-* > segments.sha256
	bin/collector -store-dir run -listen 127.0.0.1:9230 -http 127.0.0.1:9231 &
	collector=$!
	for i in $(seq 50); do curl -sf localhost:9231/api/digest && break; sleep 0.2; done
	curl -sf localhost:9231/api/digest | grep '"events":[1-9]' > /dev/null
	events() { grep -o '"events":[0-9]*' | head -n 1; }
	test "$(curl -sf localhost:9231/api/stats | events)" = "$(curl -sf localhost:9231/api/digest | events)"
	# The export is one line per stored event, read in the same fold.
	test "$(wc -l < ev.jsonl)" = "$(curl -sf localhost:9231/api/digest | events | cut -d: -f2)"
	curl -sf localhost:9231/api/live/figures | cmp - a.json
	curl -sf localhost:9231/api/live/claims | cmp - c.json
	test "$(curl -sf 'localhost:9231/api/events?kind=none')" = "[]"
	kill -INT "$collector" && wait "$collector"
	collector=
	sha256sum run/seg-* | cmp - segments.sha256
	bin/cellanalyze -in run -figures-json b.json
	cmp a.json b.json
	# A tail segment holding a frame the previous build wrote (tag 0xA5) is
	# refused, not cut as a torn write: the collector exits non-zero before
	# its timeout, cellanalyze fails with an error that names the remedy,
	# and the file is as it was.
	cp -r run older-run
	printf '\xa5\x00\x00\x00\x00\x01\x00' > older-run/seg-000002.v3s
	cp older-run/seg-000002.v3s older-seg.v3s
	rc=0; timeout 10 bin/collector -store-dir older-run -listen 127.0.0.1:9230 -http 127.0.0.1:9231 || rc=$?
	test "$rc" -ne 0 && test "$rc" -ne 124
	if err="$(bin/cellanalyze -in older-run table1 2>&1 > /dev/null)"; then echo "cellanalyze read an older build's frame" >&2; exit 1; fi
	echo "$err" | grep -F 'cellsim -o' > /dev/null
	cmp older-run/seg-000002.v3s older-seg.v3s
	# The committed sweep: one finite row per document.
	bin/cellsweep "$repo"/scenarios/sweep/*.json > sweep.txt
	test "$(grep -vc -e '^variant ' -e '^(' sweep.txt)" = 7
	if grep -Eq 'NaN|Inf' sweep.txt; then cat sweep.txt >&2; exit 1; fi
	# A retired flag must fail loudly, not be ignored (an accepted one would
	# start a server: the timeout ends that, and the grep tells the two
	# non-zero exits apart).
	for retired in "collector -admit-shards 4" "collector -checkpoint 1s" \
		"collector -live" "collector -fleet-self col-0" "collector -fleet-peers col-1=127.0.0.1:1" \
		"collector -ring-seed 1" "collector -ring-vnodes 8" "collector -live-context run" \
		"cellcheck -devices 600" "cellcheck -seed 7" "cellcheck -workers 4" \
		"cellcheck chaos -devices 600" "cellcheck chaos -seed 7" "cellcheck chaos -workers 4" \
		"cellcheck chaos -months 2" "cellcheck chaos -faults c.json" "cellcheck chaos -fleet 1" \
		"cellcheck chaos -kill restart" "cellsim -config s.json" "cellsim -devices 300" "cellsim -months 1" \
		"cellsim -seed 7" "cellsim -bs 9" "cellsim -workers 4" "cellsim -patched" "cellsim -faults c.json" \
		"cellsim -upload 127.0.0.1:1" "cellsim -buffer 10" "cellsim -spill wal" "cellrepro -devices 6000" \
		"cellrepro -seed 7" "cellrepro -workers 8" "cellsweep -devices 1500" "cellsweep -seed 7" "cellsweep -workers 8" \
		"cellsweep -sweep all"; do
		err="$(timeout 10 bin/$retired 2>&1)" && { echo "accepted: $retired" >&2; exit 1; }
		echo "$err" | grep "flag provided but not defined" > /dev/null
	done
	cd "$repo"
}

race() {
	# -count=1 defeats the test cache: the determinism tests are the
	# worker-count-independence contract, and the concurrent packages must
	# be torn-read and leak free, on every push.
	go test -race -count=1 ./internal/fleet ./internal/faultinject ./internal/trace ./internal/trace/ring ./internal/node ./internal/metrics ./internal/analysis ./internal/netprobe ./cmd/cellcheck ./cmd/collector ./cmd/liveprobe
	# What these promise is an interleaving, and one run samples few.
	go test -race -count=3 -cpu 1,2 -run 'TestLaneRunnerEquivalence|TestDatasetOrderIsDeviceOrder|TestUploadFlushesOncePerDevice' ./internal/fleet
	go test -race -count=20 -run 'TestCollectorDropMetrics|TestDecodedEventsRoundTrip|TestShedBatchesAreReleased|TestRetryAfterAckLossResendsTheSameBytes|TestRecycledBufferIsUnshared|TestAckedFrameBufferIsRecycled|TestSealedFrameIsAppendBatchV3|TestDecodeIntoADirtyTail|TestDuplicateAndMalformedFramesLeaveThePublishedBlock|TestFleetConnectionsFillSharedBlocksApart' ./internal/trace
	go test -race -count=5 -run 'TestLiveRenderBesideIngest|TestRenderFanOutAndMemoChangeNoByte|TestLiveDocumentsServedUntilStateChanges' ./internal/analysis
	go test -race -count=5 -run 'TestReplaySmallFramesEqualPass|TestIngestNeverSheds|TestQueueOutlastsARender|TestApplierRunLock|TestPausingApplierBatchesChunks|TestPauseIsCutShort|TestWaitIdleTimesOut|TestQueueDepthGaugeSettles' ./internal/analysis
	go test -race -count=5 -run 'TestPassWorkerSplitEquivalence|TestSimulateMatchesNewPass|TestFoldMatchesNewPass' ./internal/analysis
	go test -race -count=10 -run 'TestDatasetSplitBesideAppends|TestDatasetConcurrentPublishEach' ./internal/trace
	go test -race -count=20 -run 'TestDuplicateAckWaitsForDurableAppend|TestConcurrentAdmitExactlyOnce|TestTakeoverMarks|TestCollectorRestartFromStoreDedupsRetries|TestDuplicateBehindFailedAppend|TestSeedMarksCheckpointedBeforeReturn|TestFailedSeedLeavesTheGateAlone|TestFleetFailoverExactlyOnce|TestFleetRestartExactlyOnce|TestFleetBootReplaysMembersAtOnce|TestFleetBootFailsCleanlyOnACorruptMember' ./internal/trace ./internal/trace/ring
}

chaos() {
	go run -race ./cmd/cellcheck "$1" | tee chaos-report.txt
}

fuzz() {
	go test -run='^$' -fuzz=FuzzWireV3RoundTrip -fuzztime=10s ./internal/trace
	# A large seed, and three store opens per input, would otherwise spend
	# the whole budget minimising each new-coverage input.
	go test -run='^$' -fuzz=FuzzSegmentReplay -fuzztime=10s -fuzzminimizetime=2s ./internal/trace
	go test -run='^$' -fuzz=FuzzReadFrameRaw -fuzztime=10s -fuzzminimizetime=2s ./internal/trace
	go test -run='^$' -fuzz=FuzzEventDigestSurvivesTheWire -fuzztime=10s ./internal/trace
	go test -run='^$' -fuzz=FuzzDecodeV3MatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/trace
	go test -run='^$' -fuzz=FuzzEncodeV3MatchesReference -fuzztime=10s ./internal/trace
	go test -run='^$' -fuzz=FuzzMergedECDF -fuzztime=10s ./internal/stats
	go test -run='^$' -fuzz=FuzzSortUnion -fuzztime=10s ./internal/stats
	go test -run='^$' -fuzz=FuzzParseCampaign -fuzztime=10s ./internal/faultinject
	go test -run='^$' -fuzz=FuzzParseScenario -fuzztime=10s ./internal/fleet
	go test -run='^$' -fuzz=FuzzSchedulerArm -fuzztime=10s -fuzzminimizetime=2s ./internal/simclock
	go test -run='^$' -fuzz=FuzzSourceMatchesMathRand -fuzztime=10s ./internal/rng
	go test -run='^$' -fuzz=FuzzWindowAccum -fuzztime=10s ./internal/analysis
	go test -run='^$' -fuzz=FuzzSamplesSettle -fuzztime=10s ./internal/analysis
	go test -run='^$' -fuzz=FuzzDecodeDNSResponse -fuzztime=10s ./internal/netprobe
	go test -run='^$' -fuzz=FuzzSkipDNSName -fuzztime=10s ./internal/netprobe
	go test -run='^$' -fuzz=FuzzEncodeDNSName -fuzztime=10s ./internal/netprobe
}

coverage() {
	go test -coverprofile=coverage.out -coverpkg=./internal/... ./...
	go tool cover -func=coverage.out | tail -n 1
	# Fault injection is the regression harness for everything else, so it
	# gets a floor of its own.
	go test -coverprofile="$tmp/fi.out" ./internal/faultinject
	pct="$(go tool cover -func="$tmp/fi.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
	echo "faultinject coverage: ${pct}%"
	awk -v p="$pct" 'BEGIN { exit (p >= 75.0) ? 0 : 1 }' || {
		echo "faultinject coverage ${pct}% is below the 75% floor" >&2
		exit 1
	}
}

bench_smoke() {
	# One iteration proves a benchmark still runs; three samples show a
	# wedged or flaky one. The simulator's and codec's hottest kernels run
	# 200 ms each, long enough for ns/op to mean something. The pass and
	# the live render run at one CPU and at two: a part that silently
	# serializes shows only as two CPUs failing to beat one.
	{
		go test -bench=. -benchtime=1x -count=3 -benchmem -run='^$' .
		go test -bench=. -benchtime=1x -count=3 -benchmem -run='^$' ./internal/metrics
		go test -bench=BenchmarkFleet -benchtime=1x -count=3 -benchmem -run='^$' ./internal/fleet
		go test -bench='BenchmarkFleetBoot|BenchmarkFrameRoundTrip' -benchtime=1x -count=3 -benchmem -run='^$' ./internal/node
		go test -bench='BenchmarkAnalysisSinglePass|BenchmarkLiveFiguresAtRest' -benchtime=1x -count=3 -cpu 1,2 -benchmem -run='^$' ./internal/analysis
		go test -bench='BenchmarkStreamingApply' -benchtime=1x -count=3 -benchmem -run='^$' ./internal/analysis
		go test -bench=BenchmarkSchedulerRetryStorm -benchtime=200ms -count=3 -benchmem -run='^$' ./internal/simclock
		go test -bench='BenchmarkSampleLevel|BenchmarkAttach' -benchtime=200ms -count=3 -benchmem -run='^$' ./internal/simnet
		go test -bench=BenchmarkReseed -benchtime=200ms -count=3 -benchmem -run='^$' ./internal/rng
		go test -bench='BenchmarkSortFloats|BenchmarkSortUnion' -benchtime=200ms -count=3 -benchmem -run='^$' ./internal/stats
		go test -bench='BenchmarkDecodeV3|BenchmarkEncodeV3' -benchtime=200ms -count=3 -benchmem -run='^$' ./internal/trace
	} | tee bench.txt
}

all() {
	build
	race
	fuzz
	coverage
	bench_smoke
}

case "${1:-}" in
build | race | fuzz | coverage | bench-smoke | all)
	[ $# -eq 1 ] || usage
	"${1//-/_}"
	;;
chaos)
	[ $# -eq 2 ] || usage
	chaos "$2"
	;;
*)
	usage
	;;
esac
