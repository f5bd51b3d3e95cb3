// Paper goldens: the paper binary, the examples and the scenario chain's
// binaries, run as a user runs them, compared byte for byte with
// tests/golden/paper/.
//
// Each run's stdout, and every file it writes, has a golden of its own:
//   - paper --sites=2000 --days=14 (every figure, table and ablation), and
//     paper --sites=20000 --days=30;
//   - example_quickstart, example_website_audit, example_cloud_comparison
//     and example_residence_monitor 7;
//   - example_scenario_whatif (base vs a CPE-fix what-if on one cache);
//   - example_fleet_scenario examples/fleet.cfg at 1 and 4 lanes;
//   - fleet_fig_cdf and fleet_fig_wilcoxon at --residences=32 --days=28,
//     --threads=1 and 4, with their CSV/TSV outputs.
// A binary that takes a lane count runs at each count against the same
// golden; the one stdout line that names the count is checked to do so and
// then left out, as CI's 1-vs-4-lane diff leaves it out. Binaries run in a
// fresh temporary directory and write their files under fixed relative
// names, so no path enters the compared text.
//
// Regenerate after an intentional behaviour change with:
//   ./build/paper_golden_test --update
// then review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "testutil.h"

namespace {

using namespace nbv6;
namespace fs = std::filesystem;

bool g_update_goldens = false;

std::string golden_path(const std::string& name) {
  return testutil::golden_dir() + "/paper/" + name;
}

// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "nbv6_paper_golden_XXXXXX").string();
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Invocation {
  std::string binary;  ///< file name in NBV6_BIN_DIR
  std::vector<std::string> args;
  int lane_line = 0;   ///< 1-based stdout line naming the lanes; 0 = none
  std::string golden;  ///< stdout golden name
  /// {file the binary writes (relative to its cwd), golden name}.
  std::vector<std::pair<std::string, std::string>> files;
};

// Runs shell command `cmd`; returns its stdout and its wait status.
std::pair<std::string, int> run_command(const std::string& cmd) {
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot start: " << cmd;
    return {{}, -1};
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  return {out, pclose(pipe)};
}

// Runs `inv` in `dir` and returns its stdout; fails the test on a non-zero
// exit.
std::string run_in(const std::string& dir, const Invocation& inv) {
  std::string cmd = "cd '" + dir + "' && '" + NBV6_BIN_DIR + "/" + inv.binary +
                    "'";
  for (const auto& a : inv.args) cmd += " '" + a + "'";
  auto [out, status] = run_command(cmd);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << cmd << " exited with status " << status;
  return out;
}

// Drops line `line` (1-based) after checking it names a lane count.
std::string without_lane_line(const std::string& text, int line,
                              const std::string& where) {
  if (line == 0) return text;
  std::size_t begin = 0;
  for (int i = 1; i < line && begin != std::string::npos; ++i) {
    begin = text.find('\n', begin);
    if (begin != std::string::npos) ++begin;
  }
  const std::size_t end =
      begin == std::string::npos ? std::string::npos : text.find('\n', begin);
  if (end == std::string::npos) {
    ADD_FAILURE() << where << ": stdout has no line " << line;
    return text;
  }
  const std::string dropped = text.substr(begin, end - begin);
  EXPECT_NE(dropped.find(" lane(s)"), std::string::npos)
      << where << ": line " << line << " does not name the lane count: "
      << dropped;
  return text.substr(0, begin) + text.substr(end + 1);
}

void check_against_golden(const std::string& text, const std::string& name,
                          const std::string& where) {
  const std::string path = golden_path(name);
  // With --update, the first run of a golden writes it and the runs at
  // other lane counts are still compared against what it wrote.
  static std::set<std::string> written;
  if (g_update_goldens && written.insert(name).second) {
    ASSERT_TRUE(testutil::write_file(path, text)) << "cannot write " << path;
    return;
  }
  const auto golden = testutil::read_file(path);
  ASSERT_TRUE(golden.has_value())
      << "missing golden " << path
      << " — run ./paper_golden_test --update and commit the result";
  EXPECT_EQ(text, *golden)
      << where << " diverged from golden " << path << ":\n"
      << testutil::first_diff(text, *golden)
      << "\nIf the change is intentional, regenerate with --update and "
         "review the golden diff.";
}

void check_run(const Invocation& inv) {
  std::string where = inv.binary;
  for (const auto& a : inv.args) where += " " + a;
  const TempDir dir;
  ASSERT_FALSE(dir.path().empty()) << "cannot create a temporary directory";
  const std::string out =
      without_lane_line(run_in(dir.path(), inv), inv.lane_line, where);
  check_against_golden(out, inv.golden, where);
  for (const auto& [file, golden] : inv.files) {
    const auto written = testutil::read_file(dir.path() + "/" + file);
    ASSERT_TRUE(written.has_value()) << where << " did not write " << file;
    check_against_golden(*written, golden, where + " -> " + file);
  }
}

TEST(PaperGolden, PaperBinary) {
  check_run({"paper", {"--sites=2000", "--days=14"}, 0, "paper.txt", {}});
}

// Ten times the sites: the ablations' universe is still the whole one,
// and every §4/§5 count is large enough to move on a small change.
TEST(PaperGolden, PaperBinaryAt20kSites) {
  check_run({"paper", {"--sites=20000", "--days=30"}, 0, "paper_20k.txt", {}});
}

// A scale flag that is malformed, empty or below 1 exits 2 before anything
// is built, with a message naming the flag.
TEST(PaperGolden, PaperRejectsBadScaleFlags) {
  for (const std::string flag : {"--sites", "--days"}) {
    for (const char* bad : {"0", "-3", "x", ""}) {
      const std::string arg = flag + "=" + bad;
      auto [out, status] = run_command("'" + std::string(NBV6_BIN_DIR) +
                                       "/paper' '" + arg + "' 2>&1");
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
          << arg << " exited with status " << status;
      EXPECT_NE(out.find(flag), std::string::npos) << arg << ": " << out;
    }
  }
}

TEST(PaperGolden, Quickstart) {
  check_run({"example_quickstart", {}, 0, "example_quickstart.txt", {}});
}

TEST(PaperGolden, WebsiteAudit) {
  check_run({"example_website_audit", {}, 0, "example_website_audit.txt", {}});
}

TEST(PaperGolden, CloudComparison) {
  check_run({"example_cloud_comparison", {}, 0, "example_cloud_comparison.txt",
             {}});
}

TEST(PaperGolden, ResidenceMonitorSevenDays) {
  check_run({"example_residence_monitor", {"7"}, 0,
             "example_residence_monitor.txt", {}});
}

TEST(PaperGolden, ScenarioWhatIf) {
  check_run({"example_scenario_whatif", {}, 0, "example_scenario_whatif.txt",
             {}});
}

TEST(PaperGolden, FleetScenarioAtOneAndFourLanes) {
  const std::string cfg = testutil::source_dir() + "/examples/fleet.cfg";
  for (const char* lanes : {"1", "4"})
    check_run({"example_fleet_scenario", {cfg, lanes}, 1,
               "example_fleet_scenario.txt", {}});
}

TEST(PaperGolden, FleetFigCdfAtOneAndFourThreads) {
  for (const char* threads : {"--threads=1", "--threads=4"})
    check_run({"fleet_fig_cdf",
               {"--residences=32", "--days=28", threads, "--cdf-out=cdf.csv",
                "--summary-out=summary.csv"},
               3,
               "fleet_fig_cdf.txt",
               {{"cdf.csv", "fleet_fig_cdf.cdf.csv"},
                {"summary.csv", "fleet_fig_cdf.summary.csv"}}});
}

TEST(PaperGolden, FleetFigWilcoxonAtOneAndFourThreads) {
  for (const char* threads : {"--threads=1", "--threads=4"})
    check_run({"fleet_fig_wilcoxon",
               {"--residences=32", "--days=28", threads,
                "--panel-out=panel.tsv"},
               3,
               "fleet_fig_wilcoxon.txt",
               {{"panel.tsv", "fleet_fig_wilcoxon.panel.tsv"}}});
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--update") g_update_goldens = true;
  return RUN_ALL_TESTS();
}
