#include "common/ini.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_spec.h"

namespace vcmp {
namespace {

TEST(IniTest, ParsesSectionsAndValues) {
  auto document = IniDocument::Parse(
      "# comment\n"
      "[alpha]\n"
      "key = value with spaces\n"
      "number=42\n"
      "; another comment\n"
      "[beta]\n"
      "x = 1.5\n");
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  ASSERT_EQ(document.value().sections().size(), 2u);
  const auto* alpha = document.value().FindSection("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(IniDocument::GetString(*alpha, "key", ""),
            "value with spaces");
  EXPECT_EQ(IniDocument::GetInt(*alpha, "number", 0).value(), 42);
  const auto* beta = document.value().FindSection("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_DOUBLE_EQ(IniDocument::GetDouble(*beta, "x", 0.0).value(), 1.5);
  EXPECT_EQ(document.value().FindSection("gamma"), nullptr);
}

TEST(IniTest, DefaultsForMissingKeys) {
  auto document = IniDocument::Parse("[s]\na = 1\n");
  ASSERT_TRUE(document.ok());
  const auto& section = document.value().sections()[0];
  EXPECT_EQ(IniDocument::GetString(section, "missing", "fallback"),
            "fallback");
  EXPECT_DOUBLE_EQ(IniDocument::GetDouble(section, "missing", 7.0).value(),
                   7.0);
}

TEST(IniTest, RejectsMalformedInput) {
  EXPECT_FALSE(IniDocument::Parse("[unclosed\nk=v\n").ok());
  EXPECT_FALSE(IniDocument::Parse("[s]\njust a line\n").ok());
  EXPECT_FALSE(IniDocument::Parse("[s]\n= empty key\n").ok());
  EXPECT_FALSE(IniDocument::Parse("[s]\nk=1\nk=2\n").ok());  // Dup key.
  EXPECT_FALSE(IniDocument::Parse("[s]\nk=1\n[s]\n").ok());  // Dup section.
}

TEST(IniTest, RejectsNonNumericTypedAccess) {
  auto document = IniDocument::Parse("[s]\nx = not-a-number\n");
  ASSERT_TRUE(document.ok());
  EXPECT_FALSE(
      IniDocument::GetDouble(document.value().sections()[0], "x", 0.0)
          .ok());
}

TEST(IniTest, GetIntRejectsWhatWouldTruncateOrOverflow) {
  // A cast would read 2.7 as 2; 1e30, -1e30 and inf have no int64_t.
  for (const std::string value : {"2.7", "1e30", "-1e30", "inf"}) {
    SCOPED_TRACE(value);
    auto document = IniDocument::Parse("[s]\nn = " + value + "\n");
    ASSERT_TRUE(document.ok());
    const auto result =
        IniDocument::GetInt(document.value().sections()[0], "n", 0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("'n'"), std::string::npos)
        << result.status().ToString();
  }
  auto whole = IniDocument::Parse("[s]\nn = -4096\n");
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(IniDocument::GetInt(whole.value().sections()[0], "n", 0).value(),
            -4096);
}

TEST(IniTest, GetIntReadsIntegerTextExactly) {
  // Through a double, 2^53 + 1 would read as 2^53 and INT64_MAX as 2^63.
  for (const auto& [text, expected] :
       std::vector<std::pair<std::string, int64_t>>{
           {"9007199254740993", int64_t{9007199254740993}},
           {"9223372036854775807", std::numeric_limits<int64_t>::max()},
           {"-9223372036854775808", std::numeric_limits<int64_t>::min()},
           {"4.0", 4},
           {"1e3", 1000}}) {
    SCOPED_TRACE(text);
    auto document = IniDocument::Parse("[s]\nn = " + text + "\n");
    ASSERT_TRUE(document.ok());
    const auto result =
        IniDocument::GetInt(document.value().sections()[0], "n", 0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value(), expected);
  }
  // One past INT64_MAX, and a double above 2^53 that integer text cannot
  // name exactly.
  for (const std::string value : {"9223372036854775808", "1e17"}) {
    SCOPED_TRACE(value);
    auto document = IniDocument::Parse("[s]\nn = " + value + "\n");
    ASSERT_TRUE(document.ok());
    const auto result =
        IniDocument::GetInt(document.value().sections()[0], "n", 0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("'n'"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(IniTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(IniDocument::Load("/no/such/file.ini").ok());
}

TEST(ExperimentSpecTest, ParsesFullSpec) {
  auto document = IniDocument::Parse(
      "[exp1]\n"
      "dataset = Orkut\n"
      "task = MSSP\n"
      "system = GraphD\n"
      "cluster = galaxy27\n"
      "machines = 16\n"
      "workload = 2048\n"
      "schedule = geometric:3,0.5\n"
      "scale = 512\n"
      "seed = 9\n"
      "threads = 2\n");
  ASSERT_TRUE(document.ok());
  auto specs = ParseExperimentSpecs(document.value());
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs.value().size(), 1u);
  const ExperimentSpec& spec = specs.value()[0];
  EXPECT_EQ(spec.name, "exp1");
  EXPECT_EQ(spec.dataset, "Orkut");
  EXPECT_EQ(spec.task, "MSSP");
  EXPECT_EQ(spec.system, "GraphD");
  EXPECT_EQ(spec.machines, 16u);
  EXPECT_DOUBLE_EQ(spec.workload, 2048.0);
  EXPECT_EQ(spec.schedule, "geometric:3,0.5");
  EXPECT_EQ(spec.seed, 9u);
}

TEST(ExperimentSpecTest, RejectsUnknownKeys) {
  auto document = IniDocument::Parse("[exp]\nworklod = 5\n");  // Typo.
  ASSERT_TRUE(document.ok());
  EXPECT_FALSE(ParseExperimentSpecs(document.value()).ok());
}

/// Parses a one-section suite `[bad]` holding `keys`.
Status ParseOneSpec(const std::string& keys) {
  auto document = IniDocument::Parse("[bad]\n" + keys);
  EXPECT_TRUE(document.ok()) << document.status().ToString();
  return ParseExperimentSpecs(document.value()).status();
}

TEST(ExperimentSpecTest, RejectsSchedulesBatchScheduleWouldAbortOn) {
  // Each of these reaches a VCMP_CHECK in BatchSchedule if it gets past
  // parsing.
  for (const std::string keys :
       {"schedule = equal:abc\n", "schedule = equal:0\n",
        "schedule = equal:-2\n", "workload = 64\nschedule = twobatch:100\n",
        "workload = -5\n", "workload = 0\n", "schedule = geometric:0,0.5\n",
        "schedule = geometric:3,1.5\n", "schedule = geometric:3,x\n"}) {
    SCOPED_TRACE(keys);
    const Status status = ParseOneSpec(keys);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("experiment 'bad'"), std::string::npos)
        << status.ToString();
  }
}

TEST(ExperimentSpecTest, RejectsCountsThatWouldWrap) {
  // A uint32_t cast would turn -1 into 4294967295 machines or threads.
  for (const std::string key : {"machines", "threads"}) {
    SCOPED_TRACE(key);
    const Status status = ParseOneSpec(key + " = -1\n");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(key + " must be in [0, 4294967295]"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(ExperimentSpecTest, AcceptsTheScheduleBounds) {
  for (const std::string keys :
       {"workload = 64\nschedule = twobatch:64\n",
        "workload = 64\nschedule = twobatch:-64\n",
        "schedule = geometric:2,1\n", "schedule = equal:1\n",
        "schedule = tuned\n", "schedule = search\n",
        "machines = 0\nthreads = 0\n"}) {
    SCOPED_TRACE(keys);
    EXPECT_TRUE(ParseOneSpec(keys).ok()) << ParseOneSpec(keys).ToString();
  }
}

TEST(ExperimentSpecTest, RunExperimentRejectsABadScheduleWithAStatus) {
  // Specs built in code skip ParseExperimentSpecs; the run validates the
  // schedule the same way instead of aborting in BatchSchedule.
  ExperimentSpec spec;
  spec.name = "coded";
  spec.workload = 64;
  spec.schedule = "twobatch:100";
  spec.scale = 512;
  const auto result = RunExperiment(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentSpecTest, RunsEndToEnd) {
  ExperimentSpec spec;
  spec.name = "smoke";
  spec.workload = 32;
  spec.schedule = "equal:2";
  spec.scale = 512;
  auto result = RunExperiment(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().schedule.NumBatches(), 2u);
  EXPECT_GT(result.value().report.total_messages, 0.0);
}

TEST(ExperimentSpecTest, GeometricScheduleResolves) {
  ExperimentSpec spec;
  spec.name = "geo";
  spec.workload = 100;
  spec.schedule = "geometric:2,0.5";
  spec.scale = 512;
  auto result = RunExperiment(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& w = result.value().schedule.workloads();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_GT(w[0], w[1]);
}

TEST(ExperimentSpecTest, RejectsBadReferences) {
  ExperimentSpec spec;
  spec.name = "bad";
  spec.dataset = "NoSuchDataset";
  EXPECT_FALSE(RunExperiment(spec).ok());
  spec.dataset = "DBLP";
  spec.system = "NoSuchSystem";
  spec.scale = 512;
  EXPECT_FALSE(RunExperiment(spec).ok());
  spec.system = "Pregel+";
  spec.schedule = "bogus:1";
  EXPECT_FALSE(RunExperiment(spec).ok());
  spec.schedule = "equal:1";
  spec.cluster = "mars";
  EXPECT_FALSE(RunExperiment(spec).ok());
}

}  // namespace
}  // namespace vcmp
