// pawsc's flag checks. --trials takes 1..PowerAwareOptions::kMaxTrials
// (the range pawsd's request header accepts) and --jobs a whole number
// >= 0; anything else is a usage error (exit 1), caught while the flags
// are parsed, before any command runs. The rejections are driven through
// `pawsc check`, which reads neither flag, so a regression shows up as
// exit 0 and never as a run with that many trials or worker threads.
// --scheduler takes exactly the names pawsd accepts
// (cache::knownScheduler); any other name is a usage error too.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "sched/power_aware_scheduler.hpp"

namespace paws {
namespace {

const std::string kSatellite =
    "'" + std::string(PAWS_EXAMPLES_DIR) + "/satellite.paws'";
// Every scheduler solves this one (serial and list fail on satellite).
const std::string kSensorNode =
    "'" + std::string(PAWS_EXAMPLES_DIR) + "/sensor_node.paws'";

/// Runs pawsc with `args` appended, output discarded; its exit code.
int pawsc(const std::string& args) {
  const std::string command =
      "'" + std::string(PAWSC_PATH) + "' " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(PawscCliTest, TrialsOutsideOneTo64AreUsageErrors) {
  EXPECT_EQ(PowerAwareOptions::kMaxTrials, 64u);
  for (const char* value : {"-1", "0", "65", "4294967297", "abc", "4x", "",
                            " 4", "2.5"}) {
    EXPECT_EQ(pawsc("check " + kSatellite + " --trials '" + value + "'"), 1)
        << "--trials '" << value << "'";
  }
  EXPECT_EQ(pawsc("check " + kSatellite + " --trials 1"), 0);
  EXPECT_EQ(pawsc("check " + kSatellite + " --trials 64"), 0);
}

TEST(PawscCliTest, NegativeOrNonNumericJobsAreUsageErrors) {
  for (const char* value : {"-1", "-9223372036854775808", "abc", "2x", "",
                            "1.5", "99999999999999999999"}) {
    EXPECT_EQ(pawsc("check " + kSatellite + " --jobs '" + value + "'"), 1)
        << "--jobs '" << value << "'";
  }
  EXPECT_EQ(pawsc("check " + kSatellite + " --jobs 0"), 0);
  EXPECT_EQ(pawsc("check " + kSatellite + " --jobs 2"), 0);
}

TEST(PawscCliTest, ValidTrialsAndJobsStillSchedule) {
  EXPECT_EQ(pawsc("schedule " + kSatellite + " --trials 1 --jobs 1"), 0);
  EXPECT_EQ(pawsc("schedule " + kSatellite + " --trials 64 --jobs 1"), 0);
}

TEST(PawscCliTest, UnknownSchedulerNamesAreUsageErrors) {
  // A misspelt, an empty and a wrong-case name: none may fall through to
  // some other scheduler's answer.
  for (const char* value : {"optimel", "", "Pipeline", "OPTIMAL"}) {
    EXPECT_EQ(pawsc("schedule " + kSatellite + " --scheduler '" + value +
                    "' --digest"),
              1)
        << "--scheduler '" << value << "'";
  }
  for (const char* value : {"pipeline", "serial", "list", "optimal"}) {
    EXPECT_EQ(pawsc("schedule " + kSensorNode + " --scheduler " + value), 0)
        << "--scheduler " << value;
  }
}

}  // namespace
}  // namespace paws
