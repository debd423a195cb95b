// Fuzz-style round-trip tests for the trace I/O layer, seeded from the
// regression cases the PR 3 bugfixes covered:
//
//   * CsvWriter -> ReadCsv over randomized fields drawn from an adversarial
//     alphabet (separators, quotes, doubled quotes, CR/LF, embedded newlines,
//     leading/trailing whitespace, empty fields) — every field must survive
//     byte-for-byte, including records that span physical lines.
//   * stdout.log framing: randomized attempt log tails whose lines collide
//     with the "=== job <id> attempt <k> lines <n>" frame markers must round
//     trip verbatim through WriteStdoutLogs/ReadJobs (the length prefix makes
//     the framing injection-proof).
//   * Strict reads: a randomly corrupted numeric cell in jobs.csv makes the
//     reader return no jobs and name the cell's line and column.

#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/common/csv.h"
#include "src/common/rng.h"
#include "tests/reference/csv_reader.h"

namespace philly {
namespace {

// ------------------------------------------------------------ CSV round trip

std::string RandomField(Rng& rng) {
  static const std::vector<std::string> kAtoms = {
      ",",  "\"", "\"\"", "\n", "\r\n", "a",     "Killed",
      " x", "x ", "",     "7",  "-3.5", "=== job", "|",
  };
  std::string field;
  const int atoms = static_cast<int>(rng.Between(0, 5));
  for (int i = 0; i < atoms; ++i) {
    field += kAtoms[rng.Below(kAtoms.size())];
  }
  return field;
}

class CsvFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzz, RandomFieldsSurviveWriteReadExactly) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const int rows = static_cast<int>(rng.Between(1, 8));
    const int cols = static_cast<int>(rng.Between(1, 6));
    std::vector<std::vector<std::string>> table;
    for (int r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < cols; ++c) {
        row.push_back(RandomField(rng));
      }
      table.push_back(std::move(row));
    }
    // A row of entirely empty fields serializes as a blank line, which ReadCsv
    // (documented) skips as a record separator; keep at least one non-empty
    // cell per row so the row count is unambiguous.
    for (auto& row : table) {
      bool all_empty = true;
      for (const auto& f : row) {
        all_empty &= f.empty();
      }
      if (all_empty) {
        row[0] = "x";
      }
    }

    std::ostringstream out;
    CsvWriter writer(out);
    for (const auto& row : table) {
      writer.WriteRow(row);
    }
    std::istringstream in(out.str());
    const auto parsed = ReadCsv(in);
    ASSERT_EQ(parsed.size(), table.size()) << "round " << round;
    for (size_t r = 0; r < table.size(); ++r) {
      ASSERT_EQ(parsed[r], table[r]) << "round " << round << " row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzz, ::testing::Values(1, 42, 1337));

TEST(CsvFuzzTest, KnownAdversarialRecords) {
  // The PR 3 regression set: quote-parity continuation across physical lines,
  // doubled quotes, and separators inside quoted fields.
  const std::vector<std::vector<std::string>> table = {
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline\nfield", "", "trailing "},
      {"\"already quoted\"", "\r\n", ","},
  };
  std::ostringstream out;
  CsvWriter writer(out);
  for (const auto& row : table) {
    writer.WriteRow(row);
  }
  std::istringstream in(out.str());
  const auto parsed = ReadCsv(in);
  ASSERT_EQ(parsed.size(), table.size());
  for (size_t r = 0; r < table.size(); ++r) {
    EXPECT_EQ(parsed[r], table[r]);
  }
}

// --------------------------------------------------- stdout.log frame fuzzing

std::string RandomLogLine(Rng& rng, JobId job) {
  switch (rng.Below(8)) {
    case 0:
      // Exact frame-marker collision for a plausible other job.
      return "=== job " + std::to_string(static_cast<JobId>(rng.Below(50))) +
             " attempt " + std::to_string(rng.Below(4)) + " lines " +
             std::to_string(rng.Below(9));
    case 1:
      // Marker collision for THIS job.
      return "=== job " + std::to_string(job) + " attempt 0 lines 2";
    case 2:
      return "";  // empty log line
    case 3:
      return "=== job garbage attempt x lines y";
    case 4:
      return "CUDA out of memory on device 3";
    case 5:
      return std::string(static_cast<size_t>(rng.Below(64)), '=');
    case 6:
      return "loss: " + std::to_string(rng.Uniform());
    default:
      return "[stderr] worker " + std::to_string(rng.Below(16)) + " exited";
  }
}

std::vector<JobRecord> RandomJobs(Rng& rng, int count) {
  std::vector<JobRecord> jobs;
  for (int i = 0; i < count; ++i) {
    JobRecord job;
    job.spec.id = i + 1;
    job.spec.vc = static_cast<int>(rng.Below(4));
    job.spec.user = static_cast<int>(rng.Below(40));
    job.spec.submit_time = static_cast<SimTime>(rng.Below(100000));
    job.spec.num_gpus = static_cast<int>(rng.Between(1, 16));
    job.status = static_cast<JobStatus>(rng.Below(3));
    const int attempts = static_cast<int>(rng.Between(1, 3));
    SimTime clock = job.spec.submit_time;
    for (int k = 0; k < attempts; ++k) {
      AttemptRecord attempt;
      attempt.index = k;
      clock += static_cast<SimTime>(rng.Below(1000)) + 1;
      attempt.start = clock;
      clock += static_cast<SimTime>(rng.Below(5000)) + 1;
      attempt.end = clock;
      attempt.failed = rng.Bernoulli(0.3);
      attempt.preempted = !attempt.failed && rng.Bernoulli(0.2);
      const int shards = static_cast<int>(rng.Between(1, 3));
      for (int s = 0; s < shards; ++s) {
        attempt.placement.shards.push_back(
            {static_cast<ServerId>(3 * k + s), static_cast<int>(rng.Between(1, 8))});
      }
      const int lines = static_cast<int>(rng.Between(0, 6));
      for (int l = 0; l < lines; ++l) {
        attempt.log_tail.push_back(RandomLogLine(rng, job.spec.id));
      }
      job.attempts.push_back(std::move(attempt));
    }
    job.finish_time = clock;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

class StdoutFramingFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StdoutFramingFuzz, LogTailsWithMarkerCollisionsRoundTrip) {
  Rng rng(GetParam());
  const std::vector<JobRecord> jobs = RandomJobs(rng, 40);

  std::ostringstream jobs_out;
  std::ostringstream attempts_out;
  std::ostringstream util_out;
  std::ostringstream stdout_out;
  TraceWriter::WriteJobs(jobs, jobs_out);
  TraceWriter::WriteAttempts(jobs, attempts_out);
  TraceWriter::WriteUtilSegments(jobs, util_out);
  TraceWriter::WriteStdoutLogs(jobs, stdout_out);

  std::istringstream jobs_in(jobs_out.str());
  std::istringstream attempts_in(attempts_out.str());
  std::istringstream util_in(util_out.str());
  std::istringstream stdout_in(stdout_out.str());
  std::string error;
  const auto restored =
      TraceReader::ReadJobs(jobs_in, attempts_in, util_in, stdout_in, &error);
  EXPECT_EQ(error, "");
  ASSERT_EQ(restored.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& a = jobs[i];
    const JobRecord& b = restored[i];
    EXPECT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(a.attempts.size(), b.attempts.size()) << "job " << a.spec.id;
    for (size_t k = 0; k < a.attempts.size(); ++k) {
      EXPECT_EQ(a.attempts[k].start, b.attempts[k].start);
      EXPECT_EQ(a.attempts[k].end, b.attempts[k].end);
      EXPECT_EQ(EncodePlacement(a.attempts[k].placement),
                EncodePlacement(b.attempts[k].placement));
      EXPECT_EQ(a.attempts[k].log_tail, b.attempts[k].log_tail)
          << "job " << a.spec.id << " attempt " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StdoutFramingFuzz, ::testing::Values(7, 99, 2024));

// ------------------------------------------------------- rejected numerics

TEST(TraceReaderFuzzTest, EachCorruptedCellIsRejectedAtItsLine) {
  Rng rng(4242);
  for (int round = 0; round < 50; ++round) {
    const std::vector<JobRecord> jobs = RandomJobs(rng, 20);
    std::ostringstream jobs_out;
    std::ostringstream attempts_out;
    std::ostringstream util_out;
    std::ostringstream stdout_out;
    TraceWriter::WriteJobs(jobs, jobs_out);
    TraceWriter::WriteAttempts(jobs, attempts_out);
    TraceWriter::WriteUtilSegments(jobs, util_out);
    TraceWriter::WriteStdoutLogs(jobs, stdout_out);

    // Corrupt one numeric cell of one data row of jobs.csv.
    std::istringstream split(jobs_out.str());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(split, line)) {
      lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), jobs.size() + 1);  // header + rows
    const size_t row = 1 + rng.Below(jobs.size());
    auto fields = ParseCsvLine(lines[row]);
    // Column 3 (submit_time) and 6 (queue_delay_s) are numeric.
    const size_t column = rng.Bernoulli(0.5) ? 3 : 6;
    static const char* kGarbage[] = {"", "12abc", "NaN(", "--3", "0x1z", "1 2"};
    fields[column] = kGarbage[rng.Below(6)];
    std::ostringstream rebuilt;
    CsvWriter(rebuilt).WriteRow(fields);
    lines[row] = rebuilt.str();
    std::string corrupted_csv;
    for (const auto& l : lines) {
      corrupted_csv += l;
      if (corrupted_csv.back() != '\n') {
        corrupted_csv += '\n';
      }
    }

    std::istringstream jobs_in(corrupted_csv);
    std::istringstream attempts_in(attempts_out.str());
    std::istringstream util_in(util_out.str());
    std::istringstream stdout_in(stdout_out.str());
    std::string error;
    EXPECT_TRUE(
        TraceReader::ReadJobs(jobs_in, attempts_in, util_in, stdout_in, &error).empty());
    const std::string expected = "jobs.csv line " + std::to_string(row + 1) +
                                 " column " + std::to_string(column + 1) + ": ";
    EXPECT_EQ(error.substr(0, expected.size()), expected) << error;
  }
}

}  // namespace
}  // namespace philly
