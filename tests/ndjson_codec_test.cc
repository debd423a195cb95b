// Tests for the record codec (src/obs/ndjson_codec.h) over the four stream
// line types: SchedEvent, SpanRecord, TelemetrySample and TelemetryDigest.
//
//   - Round trip: random records from the writer's reachable domain decode
//     to an equal record and re-encode to the same line, and every committed
//     golden stream reads back and re-encodes to its own bytes.
//   - Rejections: one case per class of non-canonical line, each error
//     naming the line, the byte and (where one is there) the key, and the
//     stream reader returning the records before the bad line.
//   - Fuzz: random byte flips, insertions and deletions of golden lines never
//     crash or throw, and a mutated line is accepted only if it is canonical.
//
// The ASan CI job runs this binary with the rest of the suite.

#include "src/obs/ndjson_codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/event_log.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace philly {
namespace {

// ------------------------------------------------------- random records

// Integers the reader keeps exact: |x| <= 2^53.
constexpr int64_t kExactInt = int64_t{1} << 53;

class Draw {
 public:
  explicit Draw(uint64_t seed) : rng_(seed) {}

  bool Coin() { return (rng_() & 1) == 1; }
  // Uniform on [lo, hi] (modulo bias is harmless here).
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng_() % static_cast<uint64_t>(hi - lo + 1));
  }
  int32_t Int32(int32_t lo, int32_t hi) {
    return static_cast<int32_t>(Int(lo, hi));
  }

  // Any finite double: small exact values, or random bit patterns.
  double Double() {
    if (Coin()) {
      return static_cast<double>(Int(-4000, 4000)) / 8.0;
    }
    for (;;) {
      const double x = std::bit_cast<double>(rng_());
      if (std::isfinite(x)) {
        return x;
      }
    }
  }
  double NonZeroDouble() {
    double x = 0.0;
    while (x == 0.0) {
      x = Double();
    }
    return x;
  }
  double PositiveDouble() { return std::fabs(NonZeroDouble()); }

  // Half the time sets *field to `value`; otherwise leaves the default.
  template <typename T, typename U>
  void Maybe(T* field, U value) {
    if (Coin()) {
      *field = static_cast<T>(value);
    }
  }

  // Bytes 0x01-0x7f, at least `min_length` of them.
  std::string Text(int min_length) {
    std::string out(static_cast<size_t>(Int(min_length, 12)), ' ');
    for (char& c : out) {
      c = static_cast<char>(Int(0x01, 0x7f));
    }
    return out;
  }

  template <typename T>
  std::vector<T> Ints(int64_t lo, int64_t hi, int min_size) {
    std::vector<T> out(static_cast<size_t>(Int(min_size, 6)));
    for (T& v : out) {
      v = static_cast<T>(Int(lo, hi));
    }
    return out;
  }

 private:
  Rng rng_;
};

constexpr int32_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr int32_t kInt32Min = std::numeric_limits<int32_t>::min();

// Each optional field is either left at its default or given a value its
// rule writes, so the record is one the writer can reach.
SchedEvent RandomEvent(Draw& d) {
  SchedEvent e;
  e.time = d.Int(-kExactInt, kExactInt);
  e.kind = static_cast<SchedEventKind>(d.Int(0, kNumSchedEventKinds - 1));
  d.Maybe(&e.job, d.Int(0, kExactInt));
  d.Maybe(&e.vc, d.Int32(0, kInt32Max));
  d.Maybe(&e.user, d.Int32(0, kInt32Max));
  d.Maybe(&e.gpus, d.Int32(1, kInt32Max));
  d.Maybe(&e.attempt, d.Int32(0, kInt32Max));
  d.Maybe(&e.rack, d.Int32(0, kInt32Max));
  d.Maybe(&e.cluster, d.Int32(0, kInt32Max));
  d.Maybe(&e.home, d.Int32(0, kInt32Max));
  d.Maybe(&e.home_queue, d.Int(0, kExactInt));
  d.Maybe(&e.dest_queue, d.Int(0, kExactInt));
  d.Maybe(&e.dest_free, d.Int(0, kExactInt));
  if (e.kind == SchedEventKind::kSchedule) {
    e.ready_time = d.Int(-kExactInt, kExactInt);
    e.wait = d.Int(-kExactInt, kExactInt);
    e.fair_share_time = d.Int(-kExactInt, kExactInt);
    e.fragmentation_time = d.Int(-kExactInt, kExactInt);
    e.sched_attempts = d.Int32(kInt32Min, kInt32Max);
    e.out_of_order = d.Coin();
    e.benign = d.Coin();
    if (d.Coin()) e.placement = d.Text(1);
  }
  e.failed = d.Coin();
  e.preempted = d.Coin();
  e.machine_fault = d.Coin();
  d.Maybe(&e.status, d.Int32(0, kInt32Max));
  e.started_out_of_order = d.Coin();
  e.out_of_order_benign = d.Coin();
  e.overtaken = d.Coin();
  d.Maybe(&e.relax_level, d.Int32(1, kInt32Max));
  d.Maybe(&e.delay, d.Int(1, kExactInt));
  d.Maybe(&e.lost_gpu_seconds, d.PositiveDouble());
  d.Maybe(&e.detail, d.Text(1));
  return e;
}

SpanRecord RandomSpan(Draw& d) {
  SpanRecord s;
  s.start = d.Int(-kExactInt, kExactInt);
  s.dur = d.Int(-kExactInt, kExactInt);
  s.kind = static_cast<SpanKind>(d.Int(0, kNumSpanKinds - 1));
  if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
    s.code = static_cast<BlameCode>(d.Int(0, kNumBlameCodes - 1));
  }
  d.Maybe(&s.job, d.Int(0, kExactInt));
  d.Maybe(&s.vc, d.Int32(0, kInt32Max));
  d.Maybe(&s.user, d.Int32(0, kInt32Max));
  d.Maybe(&s.gpus, d.Int32(1, kInt32Max));
  d.Maybe(&s.wait_index, d.Int32(0, kInt32Max));
  d.Maybe(&s.attempt, d.Int32(0, kInt32Max));
  d.Maybe(&s.detail, d.Text(1));
  return s;
}

TelemetrySample RandomSample(Draw& d) {
  TelemetrySample s;
  const auto non_zero_int = [&d] {
    const int32_t v = d.Int32(kInt32Min, kInt32Max);
    return v == 0 ? 1 : v;
  };
  const auto non_zero_i64 = [&d] {
    const int64_t v = d.Int(-kExactInt, kExactInt);
    return v == 0 ? 1 : v;
  };
  s.time = d.Int(-kExactInt, kExactInt);
  d.Maybe(&s.used_gpus, non_zero_int());
  d.Maybe(&s.free_gpus, non_zero_int());
  d.Maybe(&s.occupancy, d.NonZeroDouble());
  d.Maybe(&s.running_jobs, non_zero_int());
  d.Maybe(&s.queued_jobs, non_zero_int());
  d.Maybe(&s.busy_servers, non_zero_int());
  d.Maybe(&s.empty_servers, non_zero_int());
  d.Maybe(&s.racks_with_empty, non_zero_int());
  d.Maybe(&s.offline_servers, non_zero_int());
  s.rack_free_gpus = d.Ints<int>(kInt32Min, kInt32Max, 0);
  s.vc_queued = d.Ints<int>(kInt32Min, kInt32Max, 0);
  s.vc_running = d.Ints<int>(kInt32Min, kInt32Max, 0);
  s.vc_used_gpus = d.Ints<int>(kInt32Min, kInt32Max, 0);
  for (int& decile : s.util_deciles) {
    decile = d.Int32(kInt32Min, kInt32Max);
  }
  d.Maybe(&s.locality_relaxations, non_zero_i64());
  d.Maybe(&s.backoffs, non_zero_i64());
  d.Maybe(&s.preemptions, non_zero_i64());
  d.Maybe(&s.migrations, non_zero_i64());
  d.Maybe(&s.fault_kills, non_zero_i64());
  d.Maybe(&s.lost_gpu_seconds, d.NonZeroDouble());
  d.Maybe(&s.ckpt_rack_writers, d.Ints<int>(kInt32Min, kInt32Max, 1));
  d.Maybe(&s.ckpt_writes, non_zero_i64());
  d.Maybe(&s.ckpt_overhead_gpu_seconds, d.NonZeroDouble());
  d.Maybe(&s.ckpt_stall_gpu_seconds, d.NonZeroDouble());
  d.Maybe(&s.vc_blame_s, d.Ints<int64_t>(-kExactInt, kExactInt, 1));
  d.Maybe(&s.util_expected_pct, d.NonZeroDouble());
  d.Maybe(&s.util_observed_pct, d.NonZeroDouble());
  return s;
}

TelemetryDigest RandomDigest(Draw& d) {
  TelemetryDigest g;
  g.samples = d.Int(-kExactInt, kExactInt);
  g.used_gpu_samples = d.Int(-kExactInt, kExactInt);
  g.queue_depth_max = d.Int(-kExactInt, kExactInt);
  g.occupancy_sum = d.Double();
  g.util_expected_sum = d.Double();
  g.util_observed_sum = d.Double();
  g.jobs = d.Int(-kExactInt, kExactInt);
  g.segments = d.Int(-kExactInt, kExactInt);
  for (size_t c = 0; c < g.util_weight.size(); ++c) {
    g.util_weight[c] = d.Double();
    g.util_weighted_sum[c] = d.Double();
  }
  return g;
}

// decode(line) gives back the record, and re-encoding gives back the line.
template <typename Record, typename Decode>
void ExpectRoundTrip(const Record& record, Decode decode) {
  const std::string line = ToNdjsonLine(record);
  Record back;
  std::string error;
  ASSERT_TRUE(decode(line, &back, &error)) << error << "\n" << line;
  EXPECT_TRUE(back == record) << line;
  EXPECT_EQ(ToNdjsonLine(back), line);
}

TEST(NdjsonCodecTest, RandomRecordsRoundTrip) {
  Draw d(20240611);
  for (int i = 0; i < 2000; ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ExpectRoundTrip(RandomEvent(d), SchedEventFromNdjsonLine);
    ExpectRoundTrip(RandomSpan(d), SpanRecordFromNdjsonLine);
    ExpectRoundTrip(RandomSample(d), TelemetrySampleFromNdjsonLine);
    ExpectRoundTrip(RandomDigest(d), TelemetryDigestFromNdjsonLine);
  }
}

TEST(NdjsonCodecTest, EveryTagRoundTrips) {
  for (int k = 0; k < kNumSchedEventKinds; ++k) {
    SchedEvent e;
    e.kind = static_cast<SchedEventKind>(k);
    ExpectRoundTrip(e, SchedEventFromNdjsonLine);
  }
  for (int k = 0; k < kNumSpanKinds; ++k) {
    for (int c = 0; c < kNumBlameCodes; ++c) {
      SpanRecord s;
      s.kind = static_cast<SpanKind>(k);
      if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
        s.code = static_cast<BlameCode>(c);
      }
      ExpectRoundTrip(s, SpanRecordFromNdjsonLine);
    }
  }
}

TEST(NdjsonCodecTest, DefaultsAreOmittedAndAlwaysFieldsStay) {
  TelemetrySample sample;
  sample.time = 60;
  EXPECT_EQ(ToNdjsonLine(sample),
            "{\"t\":60,\"rack_free\":[],\"vc_queued\":[],\"vc_running\":[],"
            "\"vc_gpus\":[],\"util_deciles\":[0,0,0,0,0,0,0,0,0,0]}");
  SchedEvent event;
  event.kind = SchedEventKind::kSchedule;
  event.out_of_order = true;
  EXPECT_EQ(ToNdjsonLine(event),
            "{\"t\":0,\"ev\":\"schedule\",\"ready\":0,\"wait\":0,\"fair\":0,"
            "\"frag\":0,\"evals\":0,\"ooo\":1}");
  event.kind = SchedEventKind::kRequeue;  // the schedule-only fields go
  EXPECT_EQ(ToNdjsonLine(event), "{\"t\":0,\"ev\":\"requeue\"}");
  SpanRecord span;
  EXPECT_EQ(ToNdjsonLine(span), "{\"t\":0,\"sp\":\"queued\",\"dur\":0}");
  span.kind = SpanKind::kBlame;
  EXPECT_EQ(ToNdjsonLine(span),
            "{\"t\":0,\"sp\":\"blame\",\"dur\":0,\"code\":\"backoff\"}");
  EXPECT_TRUE(IsTelemetryDigestLine(ToNdjsonLine(TelemetryDigest{})));
  EXPECT_FALSE(IsTelemetryDigestLine(ToNdjsonLine(sample)));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string GoldenPath(const std::string& name) {
  return std::string(PHILLY_TESTS_DIR) + "/golden/" + name;
}

template <typename Record>
std::string Encode(const std::vector<Record>& records) {
  std::string out;
  for (const Record& record : records) {
    out += ToNdjsonLine(record) + "\n";
  }
  return out;
}

// The writer's own streams are canonical: each golden reads back with no
// error and re-encodes to its own bytes.
TEST(NdjsonCodecTest, GoldenStreamsReadBackByteIdentically) {
  for (const char* name :
       {"events.ndjson", "events_fault.ndjson", "fleet_events.ndjson"}) {
    SCOPED_TRACE(name);
    const std::string bytes = ReadFile(GoldenPath(name));
    ASSERT_FALSE(bytes.empty());
    std::istringstream in(bytes);
    std::string error;
    const std::vector<SchedEvent> events = EventLog::ReadNdjson(in, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(Encode(events), bytes);
  }
  {
    const std::string bytes = ReadFile(GoldenPath("spans.ndjson"));
    ASSERT_FALSE(bytes.empty());
    std::istringstream in(bytes);
    std::string error;
    const std::vector<SpanRecord> spans = SpanLog::ReadNdjson(in, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(Encode(spans), bytes);
  }
  for (const char* name : {"telemetry.ndjson", "telemetry_fault.ndjson"}) {
    SCOPED_TRACE(name);
    const std::string bytes = ReadFile(GoldenPath(name));
    ASSERT_FALSE(bytes.empty());
    std::istringstream in(bytes);
    TelemetryDigest digest;
    bool found_digest = false;
    std::string error;
    const std::vector<TelemetrySample> samples =
        ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_TRUE(found_digest);
    EXPECT_EQ(Encode(samples) + ToNdjsonLine(digest) + "\n", bytes);
  }
}

// ------------------------------------------------------------ rejections

struct Rejection {
  const char* what;  // the class of defect
  std::string line;  // read as line 2, after a valid line 1
  size_t byte;
  const char* key;  // the key named in the error; empty: none
  const char* why = "not the canonical encoding";  // the reason given
};

// What a stream reader returned: its error, and the records it kept,
// re-encoded one line each.
struct ReadResult {
  std::string error;
  std::string records;
};

// Reads `first` then `bad` as a two-line stream and checks that the error
// names line 2, the byte, the key and the reason, and that the record of
// line 1 comes back.
template <typename Read>
void ExpectRejected(const std::string& first, const Rejection& r, Read read) {
  SCOPED_TRACE(std::string(r.what) + ": " + r.line);
  std::istringstream in(first + "\n" + r.line + "\n");
  const ReadResult result = read(in);
  const std::string& error = result.error;
  const std::string where = "line 2, byte " + std::to_string(r.byte);
  EXPECT_EQ(error.rfind(where, 0), 0u) << error;
  if (*r.key != '\0') {
    EXPECT_EQ(error.rfind(where + ", key \"" + r.key + "\": ", 0), 0u) << error;
  } else {
    EXPECT_EQ(error.rfind(where + ": ", 0), 0u) << error;
  }
  EXPECT_NE(error.find(r.why), std::string::npos) << error;
  EXPECT_EQ(result.records, first + "\n");
}

ReadResult ReadEvents(std::istream& in) {
  ReadResult result;
  result.records = Encode(EventLog::ReadNdjson(in, &result.error));
  return result;
}

ReadResult ReadSpans(std::istream& in) {
  ReadResult result;
  result.records = Encode(SpanLog::ReadNdjson(in, &result.error));
  return result;
}

// The digest, when found, is the last record.
ReadResult ReadTelemetry(std::istream& in) {
  ReadResult result;
  TelemetryDigest digest;
  bool found_digest = false;
  result.records =
      Encode(ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &result.error));
  if (found_digest) {
    result.records += ToNdjsonLine(digest) + "\n";
  }
  return result;
}

TEST(NdjsonCodecTest, EventLinesThatAreNotCanonicalAreRejected) {
  const std::string ok = "{\"t\":5,\"ev\":\"submit\",\"job\":3}";
  const std::vector<Rejection> cases = {
      {"unknown key", "{\"t\":5,\"ev\":\"submit\",\"job\":3,\"zzz\":1}", 28,
       "zzz"},
      {"duplicated key", "{\"t\":5,\"ev\":\"submit\",\"job\":3,\"job\":4}", 28,
       "job"},
      {"reordered keys", "{\"ev\":\"submit\",\"t\":5,\"job\":3}", 2, "ev"},
      {"missing always-written key", "{\"ev\":\"submit\",\"job\":3}", 2, "ev"},
      {"explicit default", "{\"t\":5,\"ev\":\"submit\",\"job\":3,\"gpus\":0}",
       28, "gpus"},
      {"whitespace", "{\"t\": 5,\"ev\":\"submit\",\"job\":3}", 5, "t"},
      {"string for a number", "{\"t\":5,\"ev\":\"submit\",\"job\":\"3\"}", 27,
       "job", "expected a number"},
      {"fractional integer", "{\"t\":5,\"ev\":\"submit\",\"job\":1.7}", 27,
       "job", "expected an integer"},
      {"out-of-range integer", "{\"t\":5,\"ev\":\"submit\",\"job\":1e300}", 27,
       "job", "integer out of range"},
      {"out-of-range int32", "{\"t\":5,\"ev\":\"submit\",\"vc\":2147483648}", 26,
       "vc", "integer out of range"},
      {"non-finite number", "{\"t\":5,\"ev\":\"fault_kill\",\"lost_gpu_s\":inf}", 38,
       "lost_gpu_s", "expected a finite number"},
      {"unknown ev tag", "{\"t\":5,\"ev\":\"bogus\",\"job\":3}", 12, "ev", "unknown tag"},
      {"field of another kind", "{\"t\":5,\"ev\":\"submit\",\"ready\":0}", 20,
       "ready"},
      {"flag written as 0", "{\"t\":5,\"ev\":\"requeue\",\"failed\":0}", 21,
       "failed"},
      {"flag written as 2", "{\"t\":5,\"ev\":\"requeue\",\"failed\":2}", 31,
       "failed", "integer out of range"},
      {"trailing bytes", "{\"t\":5,\"ev\":\"submit\",\"job\":3}x", 29, "", "trailing content"},
      {"truncated line", "{\"t\":5,\"ev\":\"sub", 16, "ev", "unterminated string"},
      {"empty line", "", 0, "", "empty line"},
      {"not an object", "[1,2]", 0, "", "expected a JSON object"},
  };
  for (const Rejection& r : cases) {
    ExpectRejected(ok, r, ReadEvents);
  }
}

TEST(NdjsonCodecTest, SpanLinesThatAreNotCanonicalAreRejected) {
  const std::string ok = "{\"t\":1,\"sp\":\"queued\",\"dur\":2}";
  const std::vector<Rejection> cases = {
      {"unknown sp tag", "{\"t\":1,\"sp\":\"nonsense\",\"dur\":2}", 12, "sp", "unknown tag"},
      {"unknown code tag",
       "{\"t\":1,\"sp\":\"blame\",\"dur\":2,\"code\":\"bogus_code\"}", 35,
       "code", "unknown tag"},
      {"missing always-written key", "{\"sp\":\"queued\",\"dur\":2}", 2, "sp"},
      {"code on a queued span",
       "{\"t\":1,\"sp\":\"queued\",\"dur\":2,\"code\":\"backoff\"}", 28, "code"},
      {"number for a string", "{\"t\":1,\"sp\":\"running\",\"dur\":2,\"detail\":7}",
       39, "detail", "expected a string"},
  };
  for (const Rejection& r : cases) {
    ExpectRejected(ok, r, ReadSpans);
  }
}

TEST(NdjsonCodecTest, TelemetryLinesThatAreNotCanonicalAreRejected) {
  TelemetrySample sample;
  sample.time = 60;
  const std::string ok = ToNdjsonLine(sample);
  TelemetryDigest digest;
  const std::string digest_line = ToNdjsonLine(digest);
  const std::string arrays =
      ",\"rack_free\":[],\"vc_queued\":[],\"vc_running\":[],\"vc_gpus\":[],"
      "\"util_deciles\":[0,0,0,0,0,0,0,0,0,0]}";
  const std::vector<Rejection> cases = {
      {"short fixed array",
       "{\"t\":120,\"rack_free\":[],\"vc_queued\":[],\"vc_running\":[],"
       "\"vc_gpus\":[],\"util_deciles\":[0,0,0]}",
       83, "util_deciles", "expected 10 entries"},
      {"fractional array entry",
       "{\"t\":120,\"rack_free\":[0.5],\"vc_queued\":[],\"vc_running\":[],"
       "\"vc_gpus\":[],\"util_deciles\":[0,0,0,0,0,0,0,0,0,0]}",
       21, "rack_free", "entry 0: expected an integer"},
      {"missing array", "{\"t\":120,\"util_deciles\":[0,0,0,0,0,0,0,0,0,0]}", 10,
       "util_deciles"},
      // Non-finite values that would re-encode to themselves.
      {"negative infinity", "{\"t\":120,\"occ\":-inf" + arrays, 15, "occ",
       "expected a finite number"},
      {"not a number", "{\"t\":120,\"occ\":-nan" + arrays, 15, "occ", "expected a finite number"},
      {"digest with a wrong constant",
       "{\"digest\":2" + digest_line.substr(11), 10, "digest"},
  };
  for (const Rejection& r : cases) {
    ExpectRejected(ok, r, ReadTelemetry);
  }
  // A digest line is accepted once, and only last.
  for (const std::string& after : {ok, digest_line}) {
    std::istringstream in(ok + "\n" + digest_line + "\n" + after + "\n");
    const ReadResult result = ReadTelemetry(in);
    EXPECT_EQ(result.error.rfind("line 2, byte 0, key \"digest\": ", 0), 0u) << result.error;
    EXPECT_EQ(result.records, ok + "\n");
  }
  std::istringstream last(ok + "\n" + digest_line + "\n");
  const ReadResult result = ReadTelemetry(last);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.records, ok + "\n" + digest_line + "\n");
}

// ------------------------------------------------------------------ fuzz

std::vector<std::string> GoldenLines(const std::string& name, size_t limit) {
  std::istringstream in(ReadFile(GoldenPath(name)));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line) && lines.size() < limit;) {
    lines.push_back(line);
  }
  return lines;
}

// Decodes `line` as `Record`; an accepted line must be canonical.
template <typename Record, typename Decode>
void ExpectAcceptedOnlyIfCanonical(const std::string& line, Decode decode) {
  Record record;
  std::string error;
  if (decode(line, &record, &error)) {
    EXPECT_EQ(ToNdjsonLine(record), line);
  } else {
    EXPECT_EQ(error.rfind("byte ", 0), 0u) << error;
  }
}

TEST(NdjsonCodecTest, MutatedGoldenLinesNeverCrash) {
  const std::vector<std::string> events = GoldenLines("events.ndjson", 400);
  const std::vector<std::string> spans = GoldenLines("spans.ndjson", 400);
  const std::vector<std::string> telemetry = GoldenLines("telemetry.ndjson", 101);
  ASSERT_FALSE(events.empty());
  ASSERT_FALSE(spans.empty());
  ASSERT_FALSE(telemetry.empty());
  // Bytes that make mutations likely to stay near-valid JSON.
  const std::string alphabet = "{}[]\",:0123456789-+.eE \\ux";
  Draw d(7);
  for (int i = 0; i < 10000; ++i) {
    const int which = static_cast<int>(d.Int(0, 2));
    const std::vector<std::string>& pool =
        which == 0 ? events : which == 1 ? spans : telemetry;
    std::string line = pool[static_cast<size_t>(
        d.Int(0, static_cast<int64_t>(pool.size()) - 1))];
    for (int m = static_cast<int>(d.Int(1, 3)); m > 0; --m) {
      const size_t at = static_cast<size_t>(
          d.Int(0, static_cast<int64_t>(line.size())));
      const char byte = d.Coin() ? alphabet[static_cast<size_t>(d.Int(
                                       0, static_cast<int64_t>(alphabet.size()) - 1))]
                                 : static_cast<char>(d.Int(0, 255));
      switch (d.Int(0, 2)) {
        case 0:  // flip
          if (at < line.size()) {
            line[at] = byte;
          }
          break;
        case 1:  // insert
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        default:  // delete
          if (at < line.size()) {
            line.erase(at, 1);
          }
      }
    }
    SCOPED_TRACE(line);
    switch (which) {
      case 0:
        ExpectAcceptedOnlyIfCanonical<SchedEvent>(line, SchedEventFromNdjsonLine);
        break;
      case 1:
        ExpectAcceptedOnlyIfCanonical<SpanRecord>(line, SpanRecordFromNdjsonLine);
        break;
      default:
        if (IsTelemetryDigestLine(line)) {
          ExpectAcceptedOnlyIfCanonical<TelemetryDigest>(
              line, TelemetryDigestFromNdjsonLine);
        } else {
          ExpectAcceptedOnlyIfCanonical<TelemetrySample>(
              line, TelemetrySampleFromNdjsonLine);
        }
    }
  }
}

}  // namespace
}  // namespace philly
