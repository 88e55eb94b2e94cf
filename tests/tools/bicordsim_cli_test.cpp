// Exit-code contract of the bicordsim CLI: a run whose invariant checker
// records violations must exit 1 so scripted sweeps (scripts/check.sh,
// EXPERIMENTS.md recipes) fail loudly, and a clean multigrantor run must
// exit 0 while still printing the election report block.
//
// The binary path is injected by CMake via BICORD_SIM_BIN.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct Result {
  int exit_code = -1;
  std::string output;
};

Result run_sim(const std::string& args) {
  // One capture file per test case and process: ctest -j runs the discovered
  // cases concurrently, and a shared path lets them overwrite each other.
  const std::string test_name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const fs::path out_file =
      fs::path(::testing::TempDir()) /
      ("bicordsim_cli_" + test_name + "_" + std::to_string(::getpid()) + ".txt");
  const std::string cmd = std::string(BICORD_SIM_BIN) + " " + args + " > " +
                          out_file.string() + " 2>&1";
  const int raw = std::system(cmd.c_str());
  Result r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(out_file);
  std::stringstream ss;
  ss << in.rdbuf();
  r.output = ss.str();
  in.close();
  fs::remove(out_file);
  return r;
}

TEST(BicordsimCliTest, CleanMultigrantorRunExitsZeroWithElectionReport) {
  const Result r = run_sim("--scenario multigrantor --seconds 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The election block must make it into the report table.
  EXPECT_NE(r.output.find("grantors"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("max handoff gap"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("invariant checks / violations"), std::string::npos)
      << r.output;
}

TEST(BicordsimCliTest, InvariantViolationsGateTheExitCode) {
  // Refusing every grant strands each takeover without a first grant: the
  // handoff-gap invariant fires and the process must exit 1.
  const Result r = run_sim(
      "--scenario multigrantor --set wifi.grants_requests=false --seconds 1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("handoff gap unbounded"), std::string::npos)
      << r.output;
}

TEST(BicordsimCliTest, UnknownPresetExitsWithUsageError) {
  const Result r = run_sim("--scenario no-such-preset --seconds 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(BicordsimCliTest, ListPresetsOmitsBlePresets) {
  // `ble` specs drive bench_ext_ble and bicordsim rejects them, so the list
  // must not advertise them.
  const Result r = run_sim("--list-presets");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("| dense1k "), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("| ble "), std::string::npos) << r.output;
}

}  // namespace
