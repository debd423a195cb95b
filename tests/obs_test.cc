// Tests for the observability layer: whole-run event-log round-trips, the
// event-stream -> SimulationResult join (the paper-style log join), metrics
// registry concurrency, phase tracing, and the two contracts the layer
// guarantees — byte-identical event streams regardless of pool thread count,
// and zero perturbation of simulation output when sinks are attached.
//
// EventStreamDeterministicAcrossPoolThreads and SharedMetricsAcrossPoolWorkers
// carry the `tsan` ctest label via this binary (see tests/CMakeLists.txt).

#include "src/obs/event_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/sha256.h"
#include "src/common/sha256_internal.h"
#include "src/core/event_join.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"
#include "src/fault/fault_process.h"
#include "src/obs/manifest.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_profiler.h"

namespace philly {
namespace {

ExperimentConfig SmallConfig(uint64_t seed) {
  return ExperimentConfig::BenchScale(/*days=*/1, seed);
}

std::string NdjsonOf(const EventLog& log) {
  std::ostringstream out;
  log.WriteNdjson(out);
  return out.str();
}

// ------------------------------------------------------------ NDJSON stream
// (line-level codec cases: ndjson_codec_test.cc)

TEST(EventLogTest, FullRunStreamRoundTripsByteIdentically) {
  EventLog log;
  ExperimentConfig config = SmallConfig(13);
  config.simulation.obs.event_log = &log;
  RunExperiment(config);
  ASSERT_GT(log.size(), 100u);

  const std::string ndjson = NdjsonOf(log);
  std::istringstream in(ndjson);
  std::string error;
  const auto events = EventLog::ReadNdjson(in, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(events.size(), log.size());

  EventLog reparsed;
  for (const auto& e : events) {
    reparsed.Append(e.kind, e.time, e.job) = e;
  }
  EXPECT_EQ(NdjsonOf(reparsed), ndjson);
}

// ------------------------------------------------------------ event join

// The property test the event log exists for: every scheduler-stream field of
// the native SimulationResult must be re-derivable from the events alone.
void ExpectJoinMatchesNative(const ExperimentConfig& base) {
  EventLog log;
  ExperimentConfig config = base;
  config.simulation.obs.event_log = &log;
  const SimulationResult native = RunExperiment(config).result;

  std::string error;
  const SimulationResult joined = JoinSchedulerEvents(log.events(), &error);
  ASSERT_TRUE(error.empty()) << error;

  EXPECT_EQ(joined.scheduling_decisions, native.scheduling_decisions);
  EXPECT_EQ(joined.out_of_order_decisions, native.out_of_order_decisions);
  EXPECT_EQ(joined.out_of_order_benign, native.out_of_order_benign);
  EXPECT_EQ(joined.preemptions, native.preemptions);
  EXPECT_EQ(joined.priority_preemptions, native.priority_preemptions);
  EXPECT_EQ(joined.migrations, native.migrations);
  EXPECT_EQ(joined.prerun_jobs, native.prerun_jobs);
  EXPECT_EQ(joined.prerun_catches, native.prerun_catches);
  EXPECT_DOUBLE_EQ(joined.prerun_gpu_seconds, native.prerun_gpu_seconds);
  EXPECT_EQ(joined.machine_fault_kills, native.machine_fault_kills);
  EXPECT_DOUBLE_EQ(joined.machine_fault_lost_gpu_seconds,
                   native.machine_fault_lost_gpu_seconds);

  ASSERT_EQ(joined.jobs.size(), native.jobs.size());
  for (size_t i = 0; i < native.jobs.size(); ++i) {
    const JobRecord& a = native.jobs[i];
    const JobRecord& b = joined.jobs[i];
    ASSERT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.spec.vc, b.spec.vc);
    EXPECT_EQ(a.spec.user, b.spec.user);
    EXPECT_EQ(a.spec.num_gpus, b.spec.num_gpus);
    EXPECT_EQ(a.spec.submit_time, b.spec.submit_time);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.InitialQueueDelay(), b.InitialQueueDelay());
    EXPECT_EQ(a.started_out_of_order, b.started_out_of_order);
    EXPECT_EQ(a.out_of_order_benign, b.out_of_order_benign);
    EXPECT_EQ(a.overtaken, b.overtaken);
    EXPECT_DOUBLE_EQ(a.GpuSeconds(), b.GpuSeconds());
    ASSERT_EQ(a.waits.size(), b.waits.size());
    for (size_t w = 0; w < a.waits.size(); ++w) {
      EXPECT_EQ(a.waits[w].ready_time, b.waits[w].ready_time);
      EXPECT_EQ(a.waits[w].wait, b.waits[w].wait);
      EXPECT_EQ(a.waits[w].fair_share_time, b.waits[w].fair_share_time);
      EXPECT_EQ(a.waits[w].fragmentation_time, b.waits[w].fragmentation_time);
      EXPECT_EQ(a.waits[w].sched_attempts, b.waits[w].sched_attempts);
    }
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (size_t k = 0; k < a.attempts.size(); ++k) {
      const AttemptRecord& x = a.attempts[k];
      const AttemptRecord& y = b.attempts[k];
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.start, y.start);
      EXPECT_EQ(x.end, y.end);
      EXPECT_EQ(x.failed, y.failed);
      EXPECT_EQ(x.preempted, y.preempted);
      EXPECT_EQ(x.machine_fault, y.machine_fault);
      EXPECT_EQ(x.prerun, y.prerun);
      EXPECT_EQ(EncodePlacement(x.placement), EncodePlacement(y.placement));
    }
  }
}

TEST(EventJoinTest, RebuildsSimulationResultFromEvents) {
  ExpectJoinMatchesNative(SmallConfig(13));
}

TEST(EventJoinTest, RebuildsUnderFaultsAndSection5Mechanisms) {
  ExperimentConfig config = SmallConfig(29);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.scheduler.enable_prerun_pool = true;
  config.simulation.scheduler.enable_migration = true;
  ExpectJoinMatchesNative(config);
}

TEST(EventJoinTest, ReportsInconsistentStream) {
  SchedEvent orphan;
  orphan.kind = SchedEventKind::kComplete;
  orphan.job = 99;
  orphan.status = 0;
  std::string error;
  const auto joined = JoinSchedulerEvents({orphan}, &error);
  EXPECT_TRUE(joined.jobs.empty());
  EXPECT_NE(error.find("never submitted"), std::string::npos) << error;
}

// ----------------------------------------------- determinism & purity

// The stream contract: running through the pool on any thread count yields
// byte-identical per-run event streams. (tsan-labeled: proves the pool +
// per-run logs are race free under ThreadSanitizer.)
TEST(EventLogTest, EventStreamDeterministicAcrossPoolThreads) {
  const std::vector<uint64_t> seeds = {7, 11, 19};

  std::vector<std::string> serial;
  for (uint64_t seed : seeds) {
    EventLog log;
    ExperimentConfig config = SmallConfig(seed);
    config.simulation.obs.event_log = &log;
    RunExperiment(config);
    serial.push_back(NdjsonOf(log));
  }

  std::vector<EventLog> logs(seeds.size());
  std::vector<ExperimentConfig> configs;
  MetricsRegistry shared_metrics;
  TraceProfiler shared_profiler;
  for (size_t i = 0; i < seeds.size(); ++i) {
    ExperimentConfig config = SmallConfig(seeds[i]);
    config.simulation.obs.event_log = &logs[i];
    config.simulation.obs.metrics = &shared_metrics;
    config.simulation.obs.profiler = &shared_profiler;
    configs.push_back(std::move(config));
  }
  const ExperimentPool pool(4);
  pool.RunMany(std::move(configs));

  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(NdjsonOf(logs[i]), serial[i]) << "seed " << seeds[i];
  }
  // The shared sinks aggregated across all three runs.
  EXPECT_GT(shared_metrics.GetCounter("sched.decisions")->value(), 0);
  EXPECT_GT(shared_profiler.size(), 0u);
}

TEST(EventLogTest, RunManyRejectsSharedEventLog) {
  EventLog shared;
  std::vector<ExperimentConfig> configs;
  for (uint64_t seed : {1u, 2u}) {
    ExperimentConfig config = SmallConfig(seed);
    config.simulation.obs.event_log = &shared;
    configs.push_back(std::move(config));
  }
  const ExperimentPool pool(2);
  EXPECT_THROW(pool.RunMany(std::move(configs)), std::invalid_argument);
}

// Attaching every sink must not change a single bit of the simulation output.
TEST(ObservabilityTest, EnabledSinksDoNotPerturbSimulation) {
  const ExperimentConfig base = SmallConfig(23);
  const SimulationResult plain = RunExperiment(base).result;

  EventLog log;
  MetricsRegistry metrics;
  TraceProfiler profiler;
  ExperimentConfig observed = base;
  observed.simulation.obs.event_log = &log;
  observed.simulation.obs.metrics = &metrics;
  observed.simulation.obs.profiler = &profiler;
  const SimulationResult instrumented = RunExperiment(observed).result;

  ASSERT_EQ(plain.jobs.size(), instrumented.jobs.size());
  EXPECT_EQ(plain.scheduling_decisions, instrumented.scheduling_decisions);
  EXPECT_EQ(plain.preemptions, instrumented.preemptions);
  EXPECT_EQ(plain.sim_events_processed, instrumented.sim_events_processed);
  for (size_t i = 0; i < plain.jobs.size(); ++i) {
    const JobRecord& a = plain.jobs[i];
    const JobRecord& b = instrumented.jobs[i];
    ASSERT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.InitialQueueDelay(), b.InitialQueueDelay());
    EXPECT_EQ(a.attempts.size(), b.attempts.size());
    EXPECT_EQ(a.GpuSeconds(), b.GpuSeconds());
    EXPECT_EQ(a.executed_epochs, b.executed_epochs);
  }
  // And the sinks did observe the run.
  EXPECT_GT(log.size(), 0u);
  EXPECT_EQ(metrics.GetCounter("sched.decisions")->value(),
            plain.scheduling_decisions);
  EXPECT_EQ(metrics.GetCounter("sim.events_processed")->value(),
            plain.sim_events_processed);
  EXPECT_EQ(
      metrics.GetHistogram("sched.queue_delay_minutes")->count(),
      static_cast<int64_t>(plain.jobs.size()));
}

// Six instruments copy a SimulationResult field; each must equal its field
// exactly, on a run where every one of them moves.
TEST(ObservabilityTest, MirroredMetricsEqualTheirResultFields) {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/7);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.scheduler.checkpoint_period = Minutes(30);
  config.simulation.scheduler.checkpoint_policy = CheckpointPolicy::kCooperativeStagger;
  config.simulation.scheduler.enable_migration = true;
  config.simulation.ckpt_io.rack_bandwidth_gbps = 0.5;
  MetricsRegistry metrics;
  config.simulation.obs.metrics = &metrics;
  const SimulationResult r = RunExperiment(config).result;
  ASSERT_GT(r.preemptions, 0);
  ASSERT_GT(r.migrations, 0);
  ASSERT_GT(r.machine_fault_kills, 0);
  ASSERT_FALSE(r.occupancy_snapshots.empty());

  EXPECT_EQ(metrics.GetCounter("sched.decisions")->value(), r.scheduling_decisions);
  EXPECT_EQ(metrics.GetCounter("sched.preemptions")->value(), r.preemptions);
  EXPECT_EQ(metrics.GetCounter("sched.migrations")->value(), r.migrations);
  EXPECT_EQ(metrics.GetCounter("fault.kills")->value(), r.machine_fault_kills);
  EXPECT_EQ(std::bit_cast<uint64_t>(metrics.GetGauge("fault.lost_gpu_seconds")->value()),
            std::bit_cast<uint64_t>(r.machine_fault_lost_gpu_seconds));
  EXPECT_EQ(metrics.GetGauge("cluster.occupancy")->value(),
            r.occupancy_snapshots.back().occupancy);
}

// ------------------------------------------------------------ metrics

TEST(MetricsTest, SharedRegistryIsThreadSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* counter = registry.GetCounter("test.counter");
      Gauge* gauge = registry.GetGauge("test.gauge");
      Histogram* hist = registry.GetHistogram("test.hist");
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        hist->Observe(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("test.counter")->value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(registry.GetGauge("test.gauge")->value(),
                   kThreads * kPerThread);
  EXPECT_EQ(registry.GetHistogram("test.hist")->count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(registry.GetHistogram("test.hist")->min(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetHistogram("test.hist")->max(), 99.0);
}

TEST(MetricsTest, HistogramQuantilesAreOrderedAndClamped) {
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.Observe(static_cast<double>(i));
  }
  EXPECT_EQ(hist.count(), 1000);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 1000.0);
  const double p50 = hist.Quantile(0.5);
  const double p90 = hist.Quantile(0.9);
  const double p99 = hist.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, hist.min());
  EXPECT_LE(p99, hist.max());
  // Base-2 buckets: the estimates are order-of-magnitude accurate.
  EXPECT_NEAR(p50, 500.0, 300.0);
}

// Regression tests for the Quantile edge cases: an empty histogram used to
// interpolate against uninitialized min/max, a single hot bucket could return
// values outside [min, max], and q at the boundaries ignored the observed
// extremes.
TEST(MetricsTest, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(1.0), 0.0);

  // All mass in one bucket: every quantile stays within the observed range.
  Histogram one_bucket;
  for (int i = 0; i < 1000; ++i) {
    one_bucket.Observe(5.0);
  }
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_GE(one_bucket.Quantile(q), 5.0) << "q=" << q;
    EXPECT_LE(one_bucket.Quantile(q), one_bucket.max()) << "q=" << q;
  }

  // q <= 0 is the observed min and q >= 1 the observed max, even when the
  // min is negative (below every bucket bound).
  Histogram mixed;
  mixed.Observe(-5.0);
  mixed.Observe(100.0);
  EXPECT_DOUBLE_EQ(mixed.Quantile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(mixed.Quantile(-0.5), -5.0);
  EXPECT_DOUBLE_EQ(mixed.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(mixed.Quantile(1.5), 100.0);
}

TEST(MetricsTest, CustomBucketLayoutValidation) {
  const Histogram deciles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  EXPECT_EQ(deciles.bucket_bounds().size(), 10u);
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>(Histogram::kNumBuckets, 0.0)),
               std::invalid_argument);
}

TEST(MetricsTest, WriteJsonSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("sched.decisions")->Increment(5);
  registry.GetHistogram("sched.queue_delay_minutes")->Observe(1.5);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"sched.decisions\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("sched.queue_delay_minutes"), std::string::npos);
}

// A non-integral gauge and histogram mean read back bit for bit: metrics.json
// carries the registry's exact values, not six significant digits.
TEST(MetricsTest, WriteJsonValuesReadBackExactly) {
  MetricsRegistry registry;
  registry.GetGauge("g")->Set(130.43312345678901);
  Histogram* histogram = registry.GetHistogram("h");
  for (const double v : {0.1, 0.2, 1.0 / 3.0}) {
    histogram->Observe(v);
  }
  std::ostringstream out;
  registry.WriteJson(out);
  std::string error;
  const JsonValue json = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(error.empty()) << error << "\n" << out.str();
  EXPECT_EQ(std::bit_cast<uint64_t>(json["gauges"]["g"].AsNumber()),
            std::bit_cast<uint64_t>(registry.GetGauge("g")->value()));
  EXPECT_EQ(std::bit_cast<uint64_t>(json["histograms"]["h"]["mean"].AsNumber()),
            std::bit_cast<uint64_t>(histogram->mean()));
}

// ------------------------------------------------------------ profiler

TEST(TraceProfilerTest, ScopedTimerRecordsSlices) {
  TraceProfiler profiler;
  {
    ScopedTimer outer(&profiler, "outer");
    ScopedTimer inner(&profiler, "inner");
  }
  EXPECT_EQ(profiler.size(), 2u);
  std::ostringstream out;
  profiler.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
}

TEST(TraceProfilerTest, NullProfilerIsNoOp) {
  ScopedTimer timer(nullptr, "unused");
  // Destruction without a profiler must be a no-op (no crash, no slices).
}

// ------------------------------------------------------------ manifest

TEST(ManifestTest, WriteJsonContainsKnobsAndOutputs) {
  RunManifest manifest;
  manifest.tool = "phillyctl";
  manifest.command = "simulate";
  manifest.seed = 42;
  manifest.days = 10;
  manifest.threads = 4;
  manifest.knobs["scheduler"] = "philly";
  manifest.outputs["events"] = "events.ndjson";
  std::ostringstream out;
  manifest.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scheduler\": \"philly\""), std::string::npos);
  EXPECT_NE(json.find("events.ndjson"), std::string::npos);
}

TEST(ManifestTest, RecordsSinkDigests) {
  RunManifest manifest;
  manifest.outputs["telemetry"] = "telemetry.ndjson";
  manifest.digests["telemetry"] = Sha256Hex("{\"t\":60}\n");
  std::ostringstream out;
  manifest.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"digests\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"telemetry\": \"" + Sha256Hex("{\"t\":60}\n") + "\""),
            std::string::npos)
      << json;
}

// ------------------------------------------------------------ sha256

// FIPS 180-4 example vectors (message, digest).
const std::pair<std::string, std::string> kSha256Vectors[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnop"
     "jklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
};

// 'a' repeated n times at the padding boundaries: 55 bytes is the longest
// message whose length fits in its last block, 56 the shortest that needs a
// second, and so on one block up. Digests from Python's hashlib.
const std::pair<size_t, std::string> kBoundaryDigests[] = {
    {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
    {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
    {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
    {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
    {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
    {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
    {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
    {127, "c57e9278af78fa3cab38667bef4ce29d783787a2f731d4e12200270f0c32320a"},
    {128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
};

// Every pinned (message, digest): the FIPS vectors and the boundary lengths.
std::vector<std::pair<std::string, std::string>> PinnedDigests() {
  std::vector<std::pair<std::string, std::string>> pins(std::begin(kSha256Vectors),
                                                        std::end(kSha256Vectors));
  for (const auto& [length, digest] : kBoundaryDigests) {
    pins.emplace_back(std::string(length, 'a'), digest);
  }
  return pins;
}

TEST(Sha256Test, MatchesKnownVectors) {
  for (const auto& [message, digest] : PinnedDigests()) {
    EXPECT_EQ(Sha256Hex(message), digest) << message.size() << " bytes: '" << message << "'";
  }
  EXPECT_EQ(Sha256Hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The message with FIPS 180-4 padding: 0x80, zeros, and the bit length as a
// 64-bit big-endian number, to a whole number of blocks.
std::string Padded(std::string_view message) {
  std::string padded(message);
  padded += '\x80';
  padded.append((119 - message.size() % 64) % 64, '\0');
  const uint64_t bits = uint64_t{message.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded += static_cast<char>(bits >> shift);
  }
  return padded;
}

std::string Hex(const std::array<uint32_t, 8>& state) {
  char hex[65];
  for (size_t i = 0; i < state.size(); ++i) {
    std::snprintf(hex + 8 * i, 9, "%08x", state[i]);
  }
  return std::string(hex, 64);
}

// The digest of `message` from `blocks` alone, handed the padded message in
// two calls split at block `split`.
std::string DigestThrough(sha256_internal::BlockFunction blocks, std::string_view message,
                          size_t split) {
  const std::string padded = Padded(message);
  const auto* data = reinterpret_cast<const unsigned char*>(padded.data());
  std::array<uint32_t, 8> state = sha256_internal::kInitialState;
  blocks(state, data, split);
  blocks(state, data + 64 * split, padded.size() / 64 - split);
  return Hex(state);
}

// Every pinned digest at every block split, through one block function.
void ExpectPinnedDigestsThrough(sha256_internal::BlockFunction blocks) {
  for (const auto& [message, digest] : PinnedDigests()) {
    ASSERT_EQ(Padded(message).size() % 64, 0u);
    for (size_t split = 0; split <= Padded(message).size() / 64; ++split) {
      EXPECT_EQ(DigestThrough(blocks, message, split), digest)
          << message.size() << " bytes split at block " << split;
    }
  }
}

TEST(Sha256Test, ScalarBlocksMatchPinnedDigests) {
  ExpectPinnedDigestsThrough(sha256_internal::ScalarBlocks);
}

TEST(Sha256Test, ShaNiBlocksMatchPinnedDigests) {
  const sha256_internal::BlockFunction sha_ni = sha256_internal::ShaNiBlocks();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
  ExpectPinnedDigestsThrough(sha_ni);
}

// Both block functions map random states and 1 to 8 random blocks to the
// same state.
TEST(Sha256Test, ShaNiBlocksMatchScalarOnRandomInputs) {
  const sha256_internal::BlockFunction sha_ni = sha256_internal::ShaNiBlocks();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
  Rng rng(256);
  std::vector<unsigned char> data(8 * 64);
  for (int round = 0; round < 4000; ++round) {
    std::array<uint32_t, 8> scalar;
    for (uint32_t& word : scalar) {
      word = static_cast<uint32_t>(rng());
    }
    for (unsigned char& byte : data) {
      byte = static_cast<unsigned char>(rng());
    }
    const auto blocks = static_cast<size_t>(rng.Between(1, 8));
    std::array<uint32_t, 8> accelerated = scalar;
    sha256_internal::ScalarBlocks(scalar, data.data(), blocks);
    sha_ni(accelerated, data.data(), blocks);
    ASSERT_EQ(Hex(accelerated), Hex(scalar)) << "round " << round << ", " << blocks
                                             << " blocks";
  }
}

// The incremental hash gives the one-shot digest wherever the input is split:
// every vector at every split point, and a million 'a's fed in random chunks.
TEST(Sha256Test, IncrementalMatchesOneShotAtEverySplit) {
  for (const auto& [message, digest] : kSha256Vectors) {
    for (size_t split = 0; split <= message.size(); ++split) {
      Sha256 hash;
      hash.Update(std::string_view(message).substr(0, split));
      hash.Update(std::string_view(message).substr(split));
      ASSERT_EQ(hash.FinishHex(), digest)
          << "'" << message << "' split at " << split;
    }
  }
  const std::string million(1000000, 'a');
  Rng rng(180);
  for (int round = 0; round < 3; ++round) {
    Sha256 hash;
    for (size_t done = 0; done < million.size();) {
      const size_t chunk =
          std::min(million.size() - done,
                   static_cast<size_t>(rng.Between(0, 300)));
      hash.Update(std::string_view(million).substr(done, chunk));
      done += chunk;
    }
    EXPECT_EQ(hash.FinishHex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

}  // namespace
}  // namespace philly
