#!/usr/bin/env bash
# Tier-1 gate: Release build with warnings-as-errors, full ctest run.
#
#   tools/run_tier1.sh            # Release + -Werror + ctest
#   tools/run_tier1.sh --tsan     # additionally: ThreadSanitizer build of
#                                 # the concurrency-sensitive tests
#                                 # (concurrent knn, score_batch,
#                                 # parallel_for, sharded cache, prefetch)
#                                 # and every HNSW test (its search state
#                                 # is pooled per query) in build-tsan/
#   tools/run_tier1.sh --asan     # additionally: AddressSanitizer + UBSan
#                                 # build of the full test suite in
#                                 # build-asan/ (every ASan/UBSan pass
#                                 # fails on the first UBSan report)
#   tools/run_tier1.sh --faults   # additionally: ThreadSanitizer pass over
#                                 # the fault-injection / degraded-mode
#                                 # suite (resilient store, breaker, fault
#                                 # simulator — DESIGN.md §9) and the
#                                 # golden run() files in build-tsan/
#   tools/run_tier1.sh --prefetch # additionally: ThreadSanitizer pass over
#                                 # the adaptive / epoch-crossing prefetch
#                                 # suite (budget arithmetic, depth
#                                 # controller, sampler peek, simulator
#                                 # determinism — DESIGN.md §8.3) and the
#                                 # golden run() files in build-tsan/
#   tools/run_tier1.sh --lockfree # additionally: ThreadSanitizer pass over
#                                 # the seqlock read path (DESIGN.md §8.4):
#                                 # concurrency + cross-shard-invariant
#                                 # oracle tests with cache_lockfree_reads
#                                 # both on and off, the residency view's
#                                 # churn and moved-entry reader tests,
#                                 # plus the single-threaded seqlock
#                                 # parity traces and the golden decision
#                                 # traces, in build-tsan/
#   tools/run_tier1.sh --server   # additionally: ThreadSanitizer pass over
#                                 # the cache service (DESIGN.md §10):
#                                 # event loop + concurrent wire clients,
#                                 # multi-tenant isolation stress, the
#                                 # served-simulator front-end, and the
#                                 # SsdTier miss-path locking, in
#                                 # build-tsan/
#   tools/run_tier1.sh --cluster  # additionally: ThreadSanitizer pass over
#                                 # the multi-node cooperative cache
#                                 # (DESIGN.md §11): concurrent service()
#                                 # across nodes, hash-ring ownership, the
#                                 # threaded cluster-mode simulator, and
#                                 # the golden run() files, in build-tsan/
#   tools/run_tier1.sh --policy   # additionally: ThreadSanitizer pass over
#                                 # the eviction-policy seam and the shadow
#                                 # tuner (DESIGN.md §13): policy parity
#                                 # traces, the section suites, the golden
#                                 # traces of every section-policy pair, live
#                                 # set_section_policies switches, tuner
#                                 # determinism, and the ghost-replay-vs-
#                                 # live-traffic race check, in build-tsan/;
#                                 # then an AddressSanitizer + UBSan pass
#                                 # over the ordered core's index arithmetic
#                                 # (the indexed victim heap, DESIGN.md
#                                 # §13.1): the policy parity traces and
#                                 # shrink audits, the importance/semantic
#                                 # section suites and the CacheGolden
#                                 # traces, in build-asan/
#   tools/run_tier1.sh --ssd      # additionally: AddressSanitizer + UBSan
#                                 # pass over the on-disk block store
#                                 # (DESIGN.md §14): the storage::File
#                                 # handle, segment framing, torn-tail/CRC
#                                 # recovery, bloom-guarded fence-slice
#                                 # reads, whole-segment GC, injected
#                                 # write faults, the tier/WAL restore
#                                 # drift fixes, the WAL fold, the golden
#                                 # segment/log bytes, the IdMap table
#                                 # every id index uses (DESIGN.md §13.1)
#                                 # and the LRU/FIFO node slab over it,
#                                 # in build-asan/
#   tools/run_tier1.sh --chaos    # additionally: ThreadSanitizer build of
#                                 # the chaos/soak harness (DESIGN.md §12)
#                                 # plus the WAL / warm-restart / weather
#                                 # suites, then a spider_chaos --smoke
#                                 # soak (~4.2 virtual hours of kill/
#                                 # restart, elastic, churn, and weather
#                                 # storms under TSan) in build-tsan/
#
# Build directories: build-tier1/, build-tsan/, build-asan/ (gitignored).

set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=0
run_asan=0
run_faults=0
run_prefetch=0
run_lockfree=0
run_server=0
run_cluster=0
run_policy=0
run_chaos=0
run_ssd=0
for arg in "$@"; do
  case "$arg" in
    --tsan) run_tsan=1 ;;
    --asan) run_asan=1 ;;
    --faults) run_faults=1 ;;
    --prefetch) run_prefetch=1 ;;
    --lockfree) run_lockfree=1 ;;
    --server) run_server=1 ;;
    --cluster) run_cluster=1 ;;
    --policy) run_policy=1 ;;
    --chaos) run_chaos=1 ;;
    --ssd) run_ssd=1 ;;
    *) echo "usage: $0 [--tsan] [--asan] [--faults] [--prefetch] [--lockfree] [--server] [--cluster] [--policy] [--chaos] [--ssd]" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: Release + warnings-as-errors =="
cmake -B build-tier1 -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DSPIDER_WARNINGS_AS_ERRORS=ON
cmake --build build-tier1 -j "$jobs"
ctest --test-dir build-tier1 --output-on-failure -j "$jobs"

if [[ "$run_tsan" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer pass over the concurrent paths =="
  # Benches/examples are irrelevant under TSan and double the build time.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target ann_test scorer_test util_test pipeline_test \
             cache_concurrency_test shard_parity_test fault_tolerance_test \
             property_test serialize_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'Concurrent|ScoreBatch|ThreadPool|Pipelined|Hnsw'
fi

if [[ "$run_faults" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer pass over the fault-tolerance paths =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target fault_tolerance_test cache_concurrency_test sim_golden_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'FaultModel|ResilientStore|FaultSimulator|RemoteStoreConcurrency|PrefetchConcurrency|SimGolden'
fi

if [[ "$run_prefetch" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer pass over the adaptive-prefetch paths =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target prefetch_adaptive_test cache_concurrency_test \
             fault_tolerance_test sim_golden_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'PrefetchBudget|AdaptiveWindow|SamplerPeek|PrefetchAdaptive|PrefetchConcurrency|FailedSpeculative|SimGolden'
fi

if [[ "$run_lockfree" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer pass over the seqlock read path =="
  # The CacheConcurrencyMode suites run every stress/oracle scenario with
  # cache_lockfree_reads on (seqlock view) and off (mutex reads). Readers
  # fall back to the mutex only after a bounded run of torn seqlock reads.
  # ResidencyView probes a pinned set while one writer's backward-shift
  # deletions move it between slots.
  # The SeqlockParity traces pin the two modes to identical hit/miss
  # sequences, and CacheGolden pins both to the committed traces.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target cache_concurrency_test shard_parity_test cache_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'Concurrent|ResidencyView|SeqlockParity|ShardParity|ShardedInvariants|SemanticCache|CacheGolden'
fi

if [[ "$run_server" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer pass over the cache service =="
  # Event-loop thread vs. concurrent blocking clients, the multi-tenant
  # isolation stress, the served-simulator round trip, and the SsdTier
  # internal locking the server miss path relies on.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target server_test tenant_isolation_test ssd_tier_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'ServerWire|ServedSimulator|TenantManager|TenantIsolation|SsdTierConcurrent|Protocol|FrameDecoder'
fi

if [[ "$run_cluster" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer pass over the cooperative cache =="
  # Loader workers hammering CooperativeCache::service() across nodes
  # (shared freq table, per-node shards, budget reservations), the ring
  # unit suite, the threaded multi-node simulator run, and the golden
  # run() files (the cooperative cache lives in run()'s process state).
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target cluster_test hash_ring_test cache_concurrency_test \
             sim_golden_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'ClusterConcurrent|ClusterSim|CooperativeCacheTest|HashRing|SimGolden'
fi

if [[ "$run_policy" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer pass over the policy seam + tuner =="
  # The oracle parity traces and shrink audits, the score-gate policy,
  # the ImportanceCache/HomophilyCache section suites (every section runs
  # through its policy), the CacheGolden traces of every section-policy
  # pair, live policy switches on a sharded cache,
  # tuner hysteresis/determinism, and the ShadowConcurrent
  # scenario (workers hammering the live cache while the driver thread
  # replays into the ghosts), plus the sharded-cache concurrency suite the
  # seam must not regress. The ShadowTuner filter also matches the tuner's
  # golden run() (SimGolden.ShadowTuner), so sim_golden_test is built too.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target policy_test shadow_tuner_test cache_concurrency_test \
             cache_test shard_parity_test sim_golden_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'PolicyParity|PolicyKindNames|ShrinkOrder|RandomCachePolicy|SemanticCachePolicy|ImportanceCache|HomophilyCache|SectionPolicySwitch|ShadowTuner|ShadowConcurrent|TunerConfig_|Concurrent|CacheGolden'

  echo "== opt-in: ASan + UBSan pass over the ordered eviction core =="
  # The victim order is an implicit heap addressed by index: an off-by-one
  # in a sift reads past the vector, which ASan reports even where the
  # oracle traces happen to agree.
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_ASAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$jobs" \
    --target policy_test cache_test shard_parity_test
  ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R 'PolicyParity|ShrinkOrder|SemanticCachePolicy|ImportanceCache|SemanticCache\.|CacheGolden'
fi

if [[ "$run_chaos" == 1 ]]; then
  echo "== opt-in: ThreadSanitizer chaos/soak pass =="
  # The WAL / warm-restart / weather unit suites, then the spider_chaos
  # --smoke soak: ~4.2 virtual hours of multithreaded op bursts under
  # kill -9 + WAL restarts, elastic flips, cluster churn, and weather
  # storms, freeze-oracle checked every virtual minute.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_TSAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$jobs" \
    --target spider_chaos wal_test fault_tolerance_test \
             cache_concurrency_test ssd_tier_test
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'WalTest|WalFault|Weather|ChaosSmoke|FaultModel|SsdTierConcurrent|ConcurrentOracle'
fi

if [[ "$run_ssd" == 1 ]]; then
  echo "== opt-in: ASan + UBSan pass over the on-disk block store =="
  # Heavy pointer/offset arithmetic (frame packing, fence-slice binary
  # search, preads at computed offsets) makes ASan the right sanitizer
  # here; the suite covers the File handle and its all-or-nothing append,
  # segment round trips, torn-tail + corrupt-CRC recovery, bloom FPR,
  # fence boundaries, GC, kill -9 payload durability, flush/seal/WAL
  # writes under injected short-write/ENOSPC/EIO faults, and the
  # residency/WAL drift regressions (restore-streamed evictions,
  # disabled-tier misses), the WAL fold (which replays through the LRU,
  # the FIFO and IdMap), the golden segment/log/snapshot bytes, IdMap
  # (probing, wrap-around backward-shift deletes, clear-then-reuse)
  # against an std::unordered_map oracle, and the LRU/FIFO node slab
  # (index links, free list) against its oracles, in trace replays and
  # in the LRU + block SSD + WAL golden run().
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_ASAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$jobs" \
    --target file_test ssd_block_store_test ssd_tier_test wal_test \
             cache_test policy_test trace_test sim_golden_test util_test
  ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R 'StorageFile|SsdBlockStore|SsdTier|WalTest|WalFault|Lru|PolicyParity|SsdBlockStoreGolden|WalGolden|IdMap'
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== opt-in: AddressSanitizer + UBSan pass over the full suite =="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPIDER_ASAN=ON \
    -DSPIDER_BUILD_BENCH=OFF \
    -DSPIDER_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$jobs"
  ctest --test-dir build-asan --output-on-failure -j "$jobs"
fi

echo "tier-1 OK"
